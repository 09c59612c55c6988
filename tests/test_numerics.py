"""Wirtinger calculus, radial derivatives and annulus quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neutralkahler.errors import DomainError, QuadratureError
from neutralkahler.numerics import (
    AnnulusGrid,
    ComplexField,
    CumulativeIntegral,
    RadialFunction,
    integrate_annulus,
    integrate_circle,
    radial_derivative,
)


def fd_field(f):
    return ComplexField(f)


class TestWirtinger:
    def test_identity_function(self):
        f = fd_field(lambda z: z)
        for xi in (0.3 + 0.4j, -2.0 + 1.0j, 5.0j):
            assert f.wirtinger_d(xi) == pytest.approx(1.0, abs=1e-9)
            assert f.wirtinger_dbar(xi) == pytest.approx(0.0, abs=1e-9)

    def test_antiholomorphic_function(self):
        f = fd_field(lambda z: z.conjugate())
        assert f.wirtinger_d(1.0 + 2.0j) == pytest.approx(0.0, abs=1e-9)
        assert f.wirtinger_dbar(1.0 + 2.0j) == pytest.approx(1.0, abs=1e-9)

    def test_modulus_squared(self):
        # d(xi xibar) = xibar by the product rule
        f = fd_field(lambda z: (z * z.conjugate()).real)
        xi = 1.0 + 1.0j
        assert f.wirtinger_d(xi) == pytest.approx(1.0 - 1.0j, abs=1e-8)

    def test_mixed_monomial_dbar(self):
        # dbar(xi^2 xibar) = xi^2; closed form against finite differences
        fd = fd_field(lambda z: z * z * z.conjugate())
        an = ComplexField(
            lambda z: z * z * z.conjugate(),
            d=lambda z: 2.0 * z * z.conjugate(),
            dbar=lambda z: z * z,
        )
        xi = 2.0 + 0.0j
        assert an.wirtinger_dbar(xi) == pytest.approx(4.0)
        assert fd.wirtinger_dbar(xi) == pytest.approx(4.0, abs=1e-8)

    def test_deterministic_evaluation(self):
        f = fd_field(lambda z: math.sin(z.real) + 1j * math.cos(z.imag))
        xi = 0.7 - 0.2j
        assert f(xi) == f(xi)
        assert f.wirtinger_d(xi) == f.wirtinger_d(xi)

    @given(
        coeffs=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3),
                      st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)),
            min_size=1,
            max_size=6,
        ),
        x=st.floats(-7.0, 7.0),
        y=st.floats(-7.0, 7.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_fd_matches_analytic_on_cubics(self, coeffs, x, y):
        coeffs = [(m, n, c) for m, n, c in coeffs if m + n <= 3]
        if not coeffs:
            return
        xi = complex(x, y)

        def ev(z):
            zb = z.conjugate()
            return sum(c * z**m * zb**n for m, n, c in coeffs)

        def d(z):
            zb = z.conjugate()
            return sum(m * c * z ** (m - 1) * zb**n for m, n, c in coeffs if m > 0)

        fd = ComplexField(ev)
        exact = d(xi)
        got = fd.wirtinger_d(xi)
        scale = max(1.0, abs(exact))
        assert abs(got - exact) <= 1e-6 * scale

    @given(x=st.floats(-3.0, 3.0), y=st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_conjugation_intertwines_d_and_dbar(self, x, y):
        # conj(d f) = dbar(conj f), with closed forms on both sides
        xi = complex(x, y)
        f = ComplexField(
            lambda z: z * z + 0.5j * z * z.conjugate(),
            d=lambda z: 2.0 * z + 0.5j * z.conjugate(),
            dbar=lambda z: 0.5j * z,
        )
        fbar = ComplexField(
            lambda z: (z * z + 0.5j * z * z.conjugate()).conjugate(),
            d=lambda z: f.dbar(z).conjugate(),
            dbar=lambda z: f.d(z).conjugate(),
        )
        assert f.wirtinger_d(xi).conjugate() == pytest.approx(
            fbar.wirtinger_dbar(xi), abs=1e-12
        )

    def test_stencil_failure_raises(self):
        from neutralkahler.errors import DerivativeUnavailableError

        def spiky(z):
            if z.real > 1.0:
                raise ValueError("outside the table")
            return z

        f = fd_field(spiky)
        with pytest.raises(DerivativeUnavailableError):
            f.wirtinger_d(1.0 + 0.0j)

    def test_nonfinite_stencil_raises(self):
        from neutralkahler.errors import DerivativeUnavailableError

        f = fd_field(lambda z: float("inf") if z.real > 1.0 else 1.0)
        with pytest.raises(DerivativeUnavailableError):
            f.wirtinger_d(1.0 + 0.0j)

    def test_fd_error_scales_quadratically(self):
        # f = sin(x) + i e^{0.3 y}:  d f = (cos x + 0.3 e^{0.3 y}) / 2
        f = lambda z: complex(math.sin(z.real), math.exp(0.3 * z.imag))
        exact = 0.5 * (math.cos(1.0) + 0.3 * math.exp(0.3 * 0.5))
        errs = []
        for h in (1e-2, 1e-3):
            field = ComplexField(f, fd_step=h)
            errs.append(abs(field.wirtinger_d(1.0 + 0.5j) - exact))
        ratio = errs[0] / errs[1]
        assert 50.0 < ratio < 200.0


class TestRadialDerivative:
    def test_square(self):
        assert radial_derivative(lambda r: r * r, 3.0, 1) == pytest.approx(6.0, abs=1e-9)

    def test_log_second_derivative(self):
        assert radial_derivative(math.log, 2.0, 2) == pytest.approx(-0.25, abs=1e-7)

    def test_constant(self):
        assert radial_derivative(lambda r: 4.2, 1.3, 1) == pytest.approx(0.0, abs=1e-12)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(DomainError):
            radial_derivative(lambda r: r, 0.0, 1)
        with pytest.raises(DomainError):
            radial_derivative(lambda r: r, -1.0, 2)

    def test_closed_form_takes_priority(self):
        assert RadialFunction(lambda r: r * r, lambda r: -1.0).deriv(3.0, 1) == -1.0

    def test_radial_function_fallback(self):
        rf = RadialFunction(lambda r: r**3)
        assert rf.deriv(2.0, 1) == pytest.approx(12.0, abs=1e-6)
        assert rf.deriv(2.0, 2) == pytest.approx(12.0, abs=1e-4)


class TestAnnulusGrid:
    def test_nodes_inside_annulus(self):
        grid = AnnulusGrid(1.0, 2.0, 8, 12)
        assert np.all(grid.radial_nodes >= 1.0)
        assert np.all(grid.radial_nodes <= 2.0)
        assert np.all(grid.theta_nodes >= 0.0)
        assert np.all(grid.theta_nodes < 2.0 * np.pi)

    def test_exclusion_band_respected(self):
        grid = AnnulusGrid(0.5, 2.0, 16, 8, exclusion_bands=((1.0, 0.05),))
        assert not np.any(np.abs(grid.radial_nodes - 1.0) < 0.05)
        for r, _ in grid.mesh_nodes():
            assert abs(r - 1.0) >= 0.05

    def test_validation(self):
        with pytest.raises(DomainError):
            AnnulusGrid(0.0, 1.0, 8, 8)
        with pytest.raises(DomainError):
            AnnulusGrid(2.0, 1.0, 8, 8)
        with pytest.raises(DomainError):
            AnnulusGrid(1.0, 2.0, 1, 8)
        with pytest.raises(DomainError):
            AnnulusGrid(1.0, 2.0, 8, 3)

    def test_every_kept_segment_gets_a_cell(self):
        bands = ((1.0, 0.1), (1.5, 0.1))  # keep [0.5, 0.9], [1.1, 1.4], [1.6, 2.5]
        with pytest.raises(DomainError):
            AnnulusGrid(0.5, 2.5, 2, 16, bands)
        grid = AnnulusGrid(0.5, 2.5, 3, 16, bands)
        for lo, hi in ((0.5, 0.9), (1.1, 1.4), (1.6, 2.5)):
            assert np.any((grid.radial_nodes > lo) & (grid.radial_nodes < hi))


class TestIntegrateAnnulus:
    def test_constant_integrand(self):
        # area of the annulus 1 <= R <= 2
        grid = AnnulusGrid(1.0, 2.0, 16, 8)
        assert integrate_annulus(lambda r, t: 1.0, grid) == pytest.approx(3.0 * np.pi, rel=1e-12)

    def test_inverse_square_integrand(self):
        # ∫∫ R^-2 * R dR dtheta = 2 pi ln R |_1^e = 2 pi
        grid = AnnulusGrid(1.0, math.e, 24, 8)
        assert integrate_annulus(lambda r, t: r**-2, grid) == pytest.approx(
            2.0 * np.pi, rel=1e-10
        )

    def test_angular_cosine_squared(self):
        grid = AnnulusGrid(1e-9, 1.0, 16, 16)
        got = integrate_annulus(lambda r, t: np.cos(t) ** 2, grid)
        assert got == pytest.approx(np.pi / 2.0, rel=1e-9)

    def test_radial_polynomial_exactness(self):
        # 4-point Gauss cells integrate radial polynomials up to degree 7
        # exactly (with the Jacobian the integrand may reach degree 6)
        grid = AnnulusGrid(0.5, 2.0, 2, 4)
        exact = 2.0 * np.pi * (2.0**8 - 0.5**8) / 8.0
        got = integrate_annulus(lambda r, t: r**6, grid)
        assert got == pytest.approx(exact, rel=1e-14)

    def test_trig_polynomial_exactness_in_theta(self):
        # degree-3 trigonometric polynomial integrates exactly with 16 angles
        grid = AnnulusGrid(1.0, 2.0, 8, 16)
        got = integrate_annulus(lambda r, t: 1.0 + np.cos(3.0 * t), grid)
        assert got == pytest.approx(3.0 * np.pi, rel=1e-13)

    def test_linearity_and_monotonicity(self):
        grid = AnnulusGrid(0.5, 1.5, 8, 8)
        f = lambda r, t: r * np.sin(t) ** 2
        g = lambda r, t: 1.0 + 0.2 * np.cos(t)
        lhs = integrate_annulus(lambda r, t: 2.0 * f(r, t) + 3.0 * g(r, t), grid)
        rhs = 2.0 * integrate_annulus(f, grid) + 3.0 * integrate_annulus(g, grid)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert integrate_annulus(g, grid) >= 0.0

    def test_nonfinite_integrand_names_node(self):
        grid = AnnulusGrid(0.5, 1.5, 8, 8)
        with pytest.raises(QuadratureError, match="R="):
            integrate_annulus(lambda r, t: np.where(r > 1.0, np.inf, 1.0), grid)

    def test_circle_rule(self):
        assert integrate_circle(lambda t: np.cos(t) ** 2) == pytest.approx(np.pi, rel=1e-12)


class TestCumulativeIntegral:
    def test_against_antiderivative(self):
        ci = CumulativeIntegral(np.sin, 0.5, 3.0, 64)
        for r in np.linspace(0.5, 3.0, 11):
            assert ci(float(r)) == pytest.approx(math.cos(0.5) - math.cos(r), abs=1e-12)

    def test_one_call_at_construction_none_at_evaluation(self):
        shapes = []

        def f(r):
            shapes.append(np.shape(r))
            return np.cos(r)

        ci = CumulativeIntegral(f, 0.2, 1.7, 16)
        assert shapes == [(16, 8)]
        ci(np.linspace(0.2, 1.7, 50))
        ci(1.0)
        assert shapes == [(16, 8)]

    @pytest.mark.parametrize("degree", range(8))
    def test_partial_cells_exact_up_to_degree_seven(self, degree):
        # each cell's degree-7 interpolant is the polynomial itself
        p = np.polynomial.Polynomial(np.random.default_rng(degree).normal(size=degree + 1))
        a, b = 0.3, 2.1
        ci = CumulativeIntegral(p, a, b, 3)
        rs = np.concatenate([np.linspace(a, b, 201), ci.edges])
        exact = p.integ(lbnd=a)(rs)
        assert np.max(np.abs(ci(rs) - exact)) <= 1e-14 * np.max(np.abs(exact))

    def test_array_evaluation_is_scalar_evaluation(self):
        ci = CumulativeIntegral(lambda r: np.exp(-r) * np.sin(3.0 * r), 0.1, 2.0, 32)
        rs = np.linspace(0.1, 2.0, 37).reshape(37, 1) + np.zeros(2)
        values = ci(rs)
        assert values.shape == rs.shape
        assert values.tolist() == [[ci(float(r)) for r in row] for row in rs]

    def test_constant_integrand_may_return_a_scalar(self):
        ci = CumulativeIntegral(lambda r: 2.5, 1.0, 3.0, 8)
        rs = np.linspace(1.0, 3.0, 9)
        np.testing.assert_allclose(ci(rs), 2.5 * (rs - 1.0), rtol=1e-14, atol=1e-14)

    def test_out_of_range(self):
        ci = CumulativeIntegral(lambda r: 1.0, 1.0, 2.0)
        for r in (0.5, 2.5, np.array([1.2, 2.0 + 1e-9])):
            with pytest.raises(DomainError):
                ci(r)
