"""Wirtinger calculus, radial profiles and annulus quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neutralkahler import numerics
from neutralkahler.errors import DomainError, QuadratureError
from neutralkahler.numerics import (
    GAUSS_LEGENDRE_4,
    GAUSS_LEGENDRE_8,
    AnnulusGrid,
    ComplexField,
    CumulativeIntegral,
    RadialFunction,
    _plane_partials,
    integrate_annulus,
    integrate_circle,
)


def fd_jet(f, xi):
    """``(F, dF, dbarF)`` of ``f`` at ``xi`` from the plane's one stencil."""
    fx, fy = _plane_partials(f, xi)
    return f(xi), 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


class TestWirtinger:
    def test_identity_function(self):
        for xi in (0.3 + 0.4j, -2.0 + 1.0j, 5.0j):
            assert fd_jet(lambda z: z, xi) == pytest.approx((xi, 1.0, 0.0), abs=1e-9)

    def test_antiholomorphic_function(self):
        f = lambda z: z.conjugate()
        assert fd_jet(f, 1.0 + 2.0j)[1:] == pytest.approx((0.0, 1.0), abs=1e-9)

    def test_modulus_squared(self):
        # d(xi xibar) = xibar by the product rule
        f = lambda z: (z * z.conjugate()).real
        xi = 1.0 + 1.0j
        assert fd_jet(f, xi)[1] == pytest.approx(1.0 - 1.0j, abs=1e-8)

    def test_mixed_monomial_dbar(self):
        # dbar(xi^2 xibar) = xi^2; closed form against finite differences
        an = ComplexField(
            lambda z: z * z * z.conjugate(),
            lambda z: (z * z * z.conjugate(), 2.0 * z * z.conjugate(), z * z),
        )
        xi = 2.0 + 0.0j
        assert an.jet(xi)[2] == pytest.approx(4.0)
        assert fd_jet(an, xi)[2] == pytest.approx(4.0, abs=1e-8)

    def test_deterministic_evaluation(self):
        f = lambda z: math.sin(z.real) + 1j * math.cos(z.imag)
        xi = 0.7 - 0.2j
        assert f(xi) == f(xi)
        assert fd_jet(f, xi) == fd_jet(f, xi)

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

        exact = d(xi)
        got = fd_jet(ev, xi)[1]
        scale = max(1.0, abs(exact))
        assert abs(got - exact) <= 1e-6 * scale

    @given(x=st.floats(-3.0, 3.0), y=st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_conjugation_intertwines_d_and_dbar(self, x, y):
        # conj(d f) = dbar(conj f), with closed forms on both sides
        xi = complex(x, y)
        def jet(z):
            return z * z + 0.5j * z * z.conjugate(), 2.0 * z + 0.5j * z.conjugate(), 0.5j * z

        def jet_bar(z):
            value, d, dbar = jet(z)
            return value.conjugate(), dbar.conjugate(), d.conjugate()

        f = ComplexField(lambda z: jet(z)[0], jet)
        fbar = ComplexField(lambda z: jet_bar(z)[0], jet_bar)
        assert f.jet(xi)[1].conjugate() == pytest.approx(fbar.jet(xi)[2], abs=1e-12)

    def test_fd_error_scales_quartically(self, monkeypatch):
        # f = sin(x) + i e^{0.3 y}:  d f = (cos x + 0.3 e^{0.3 y}) / 2; both steps lie in
        # the truncation regime (errors about 2e-9 and 1e-10, far above roundoff), where
        # halving the step of a fourth-order rule divides the error by 16
        f = lambda z: complex(math.sin(z.real), math.exp(0.3 * z.imag))
        exact = 0.5 * (math.cos(1.0) + 0.3 * math.exp(0.3 * 0.5))
        errs = []
        for h in (4e-2, 2e-2):
            monkeypatch.setattr(numerics, "FD_STEP", h)
            errs.append(abs(fd_jet(f, 1.0 + 0.5j)[1] - exact))
        ratio = errs[0] / errs[1]
        assert 14.0 < ratio < 18.0


class TestRadialDerivative:
    """A radial profile is its closed-form derivatives: ``deriv`` reads them and
    differences nothing."""

    def test_square(self):
        assert RadialFunction(lambda r: r * r, lambda r: 2.0 * r).deriv(3.0, 1) == 6.0

    def test_log_second_derivative(self):
        log = RadialFunction(np.log, lambda r: 1.0 / r, lambda r: -1.0 / (r * r))
        assert log.deriv(2.0, 2) == -0.25

    def test_constant(self):
        assert RadialFunction.constant(4.2).deriv(1.3, 1) == 0.0
        assert RadialFunction.constant(4.2).deriv(1.3, 2) == 0.0

    def test_third_order_rejected(self):
        cube = RadialFunction(lambda r: r**3, lambda r: 3.0 * r * r, lambda r: 6.0 * r)
        with pytest.raises(DomainError, match="derivative of order 3$"):
            cube.deriv(1.0, 3)

    def test_deriv_reads_the_closed_forms(self):
        # even a wrong closed form is returned as given: nothing checks it against f here
        rf = RadialFunction(lambda r: r * r, lambda r: -1.0, lambda r: 7.0)
        assert rf.deriv(3.0, 1) == -1.0 and rf.deriv(3.0) == -1.0
        assert rf.deriv(3.0, 2) == 7.0
        rs = np.array([0.5, 1.0, 2.0])
        np.testing.assert_array_equal(RadialFunction(np.sin, np.cos).deriv(rs, 1), np.cos(rs))

    def test_no_fallback_without_closed_forms(self):
        # a profile without f' fails where it is built, one without f'' where f'' is read
        with pytest.raises(TypeError, match="df"):
            RadialFunction(lambda r: r**3)
        rf = RadialFunction(lambda r: r**3, lambda r: 3.0 * r * r)
        assert rf.d2f is None and rf.deriv(2.0, 1) == 12.0
        with pytest.raises(DomainError, match="derivative of order 2$"):
            rf.deriv(2.0, 2)


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
        assert np.all(np.abs(grid._lattice()[0] - 1.0) >= 0.05)

    def test_validation(self):
        with pytest.raises(DomainError):
            AnnulusGrid(0.0, 1.0, 8, 8)
        with pytest.raises(DomainError):
            AnnulusGrid(2.0, 1.0, 8, 8)
        for r_min, r_max in ((math.nan, 1.0), (0.5, math.nan), (0.5, math.inf)):
            with pytest.raises(DomainError, match="r_min"):
                AnnulusGrid(r_min, r_max, 8, 8)
        with pytest.raises(DomainError):
            AnnulusGrid(1.0, 2.0, 1, 8)
        with pytest.raises(DomainError):
            AnnulusGrid(1.0, 2.0, 8, 3)

    @pytest.mark.parametrize("band", [(1.0, -0.1), (1.0, 0.0), (1.0, math.nan),
                                      (1.0, math.inf), (math.nan, 0.1)])
    def test_bad_exclusion_band_rejected(self, band):
        # a negative half-width used to pass and double-count the overlap of
        # the kept segments (0.5, 1.1) and (0.9, 2.0); a NaN one claimed that
        # the bands cover the whole range
        with pytest.raises(DomainError, match="positive finite half-width"):
            AnnulusGrid(0.5, 2.0, 16, 16, (band,))

    def test_bands_covering_the_range_rejected(self):
        with pytest.raises(DomainError, match="cover the whole radial range"):
            AnnulusGrid(1.0, 2.0, 8, 8, ((1.2, 0.3), (1.7, 0.4)))

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

    def test_nonfinite_boundary_integrand_names_angle(self):
        with pytest.raises(QuadratureError, match=r"boundary integrand at theta=3\.14159"):
            integrate_circle(lambda t: np.where(t >= np.pi, np.nan, 1.0))


@pytest.mark.parametrize("n, rule", [(4, GAUSS_LEGENDRE_4), (8, GAUSS_LEGENDRE_8)])
class TestGaussRules:
    """The pinned n-point rules are Gauss-Legendre rules (Golub & Welsch,
    "Calculation of Gauss quadrature rules", Math. Comp. 23, 1969)."""

    def test_exact_up_to_degree_2n_minus_1(self, n, rule):
        nodes, weights = rule
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert weights @ nodes**k == pytest.approx(exact, abs=1e-15), k

    def test_agrees_with_leggauss(self, n, rule):
        nodes, weights = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(rule[0] - nodes)) <= 2e-15
        assert np.max(np.abs(rule[1] - weights)) <= 2e-15

    def test_shape_of_the_rule(self, n, rule):
        nodes, weights = rule
        assert nodes.shape == weights.shape == (n,)
        assert np.all(np.diff(nodes) > 0.0)
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])
        assert np.all(weights > 0.0)
        assert weights.sum() == pytest.approx(2.0, abs=1e-15)

    def test_bit_for_bit_the_classical_values(self, n, rule):
        # the literals were written from scipy's rule, so every quadrature sum
        # and every report is unchanged; scipy is not a runtime dependency
        special = pytest.importorskip("scipy.special")
        nodes, weights = special.roots_legendre(n)
        assert rule[0].tobytes() == nodes.tobytes()
        assert rule[1].tobytes() == weights.tobytes()


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

    def test_a_radius_outside_is_named_alone(self):
        # the error names the first radius outside the range, not the whole array
        ci = CumulativeIntegral(np.exp, 1.0, 2.0, 8)
        rs = np.linspace(0.5, 3.5, 500)[::-1]
        with pytest.raises(DomainError) as info:
            ci(rs)
        assert str(info.value) == "radius 3.5 outside integration range [1.0, 2.0]"
        with pytest.raises(DomainError, match=r"^radius 0.25 outside"):
            ci(0.25)

    def test_constant_integrand_may_return_a_scalar(self):
        ci = CumulativeIntegral(lambda r: 2.5, 1.0, 3.0, 8)
        rs = np.linspace(1.0, 3.0, 9)
        np.testing.assert_allclose(ci(rs), 2.5 * (rs - 1.0), rtol=1e-14, atol=1e-14)

    def test_antiderivative_table_is_legint_bit_for_bit(self):
        # the pinned literals are the table numpy.polynomial builds from the 8-point rule
        from numpy.polynomial.legendre import legint, legvander

        nodes, weights = GAUSS_LEGENDRE_8
        table = legint((np.arange(8) + 0.5)[:, None] * (legvander(nodes, 7).T * weights), lbnd=-1)
        pinned = CumulativeIntegral._ANTIDERIVATIVE
        assert pinned.shape == table.shape == (9, 8)
        assert pinned.tobytes() == table.tobytes()
        assert not pinned.flags.writeable

    @pytest.mark.parametrize("n", [1, 7, 256])
    def test_legendre_series_is_legval_bit_for_bit(self, n):
        from numpy.polynomial.legendre import legval

        rng = np.random.default_rng(n)
        c, x = rng.normal(size=(9, n)), rng.uniform(-1.0, 1.0, n)
        assert numerics._legendre_series(c, x).tobytes() == legval(x, c, tensor=False).tobytes()
        for j in range(min(n, 5)):  # one cell at a scalar, numpy and Python
            for t in (x[j], float(x[j])):
                got, want = numerics._legendre_series(c[:, j], t), legval(t, c[:, j], tensor=False)
                assert float(got).hex() == float(want).hex()

    def test_values_are_the_legval_evaluation_bit_for_bit(self):
        # the evaluation CumulativeIntegral made with numpy.polynomial, at array and scalar radii
        from numpy.polynomial.legendre import legval

        ci = CumulativeIntegral(lambda r: np.exp(-r) * np.sin(3.0 * r), 0.1, 2.0, 32)

        def by_legval(r):
            k = np.minimum(ci.edges.searchsorted(r, side="right"), len(ci.edges) - 1) - 1
            t = (r - ci._mid[k]) / ci._half[k]
            return ci.prefix[k] + legval(t, np.moveaxis(ci._coeffs[k], -1, 0), tensor=False)

        rs = np.random.default_rng(3).uniform(0.1, 2.0, (40, 3))
        assert ci(rs).tobytes() == by_legval(rs).tobytes()
        for r in [0.1, 2.0, *rs[:, 0].tolist()]:
            assert float(ci(r)).hex() == float(by_legval(r)).hex()

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 1.0)])
    def test_empty_range_rejected(self, a, b):
        with pytest.raises(DomainError, match="empty integration range"):
            CumulativeIntegral(lambda r: 1.0, a, b)

    def test_out_of_range(self):
        ci = CumulativeIntegral(lambda r: 1.0, 1.0, 2.0)
        for r in (0.5, 2.5, np.array([1.2, 2.0 + 1e-9])):
            with pytest.raises(DomainError):
                ci(r)

    @pytest.mark.parametrize("r", [float("nan"), np.array([1.2, np.nan, 3.0])])
    def test_nan_radius_is_outside(self, r):
        # the first bad entry is the NaN, ahead of the radius above the range
        ci = CumulativeIntegral(np.exp, 1.0, 2.0, 8)
        with pytest.raises(DomainError, match=r"^radius nan outside integration range"):
            ci(r)
