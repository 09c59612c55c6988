"""The stationarity ODE pair, reduction of order, and the closed families."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from neutralkahler import (
    ConformalGeometry,
    FamilyParams,
    degenerate_family,
    el_residual,
    numerics,
    ode_coefficients,
    ode_residuals,
    psi_closed_form,
    reduction_of_order,
    slopes,
    stationary_family,
)
from neutralkahler.errors import (
    DegenerateFamilyRedirect,
    DomainError,
    EmptyDomainError,
    SingularCoefficientError,
)
from neutralkahler.ambient import GEOMETRIES
from neutralkahler.lines3d import TorusFamily, torus_section
from neutralkahler.numerics import CumulativeIntegral, RadialFunction, _plane_partials, _polar
from neutralkahler.rotsym import (
    NULL_CIRCLE_STANDOFF,
    RotSymProfile,
    _radial_sum,
    comfortable_range,
)
from neutralkahler.sampling import (
    geometry_by_name,
    off_family_profile,
    random_radial_geometry,
    rng_from_seed,
)

H_LINEAR = RadialFunction(lambda r: r, lambda r: 1.0, lambda r: 0.0)
#: the radial range each geometry's families are drawn over: the table's rows, and the
#: range of the bump that the geometry-table tests add
GEOMETRY_RANGES = {name: row[1] for name, row in GEOMETRIES.items()} | {"bump": (0.3, 2.5)}


def richardson_derivative(g, rs):
    """``g'`` at the radii ``rs`` by the package's one difference rule,
    ``numerics._richardson``, on its real arms, step ``1e-5 max(1, R)``."""
    h = 1e-5 * np.maximum(1.0, rs)
    return numerics._richardson([g(rs + arm.real * h) for arm in numerics._ARMS[:4]], h)[0]


def closed_family_H(geom, a1, b1):
    """``H = a1 R + b1 e^{-2u} / R`` with ``H'`` and ``H''`` by the product rule,
    from ``v = e^{-2u}``, ``v' = -2 u' v`` and ``v'' = (4 u'^2 - 2 u'') v``."""
    v = lambda r: np.exp(-2.0 * geom.radial_u(r))
    dv = lambda r: -2.0 * geom.radial_du(r) * v(r)
    d2v = lambda r: (4.0 * geom.radial_du(r) ** 2 - 2.0 * geom.radial_ddu(r)) * v(r)
    return RadialFunction(lambda r: a1 * r + b1 * v(r) / r,
                          lambda r: a1 + b1 * (dv(r) / r - v(r) / r**2),
                          lambda r: b1 * (d2v(r) / r - 2.0 * dv(r) / r**2 + 2.0 * v(r) / r**3))


def lstsq_fit(basis, target, rs):
    """Least-squares fit of target(R) in span(basis); returns (coeffs, max residual)."""
    A = np.array([[b(r) for b in basis] for r in rs])
    y = np.array([target(r) for r in rs])
    coeffs, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = np.max(np.abs(A @ coeffs - y))
    return coeffs, resid


class TestOdeCoefficients:
    def test_flat_values(self, flat):
        co = ode_coefficients(flat, H_LINEAR, 2.0)
        assert co.p1 == pytest.approx(-0.5)
        assert co.q1 == pytest.approx(0.0)

    def test_vanishing_sources_for_linear_profile(self, flat):
        co = ode_coefficients(flat, H_LINEAR, 1.3)
        assert co.L1 == 0.0
        assert co.L2 == 0.0
        assert math.isnan(co.p2) and math.isnan(co.q2)

    @pytest.mark.parametrize("r", [0.0, -1.0, np.array([1.0, 0.0])])
    def test_nonpositive_radius_rejected(self, flat, r):
        with pytest.raises(DomainError, match="radius must be positive"):
            ode_coefficients(flat, H_LINEAR, r)

    def test_nonpositive_radius_is_named_alone(self, flat):
        # 500 radii, the first non-positive one named: no message prints the whole array
        rs = np.linspace(2.0, -1.0, 500)
        with pytest.raises(DomainError) as info:
            ode_coefficients(flat, H_LINEAR, rs)
        assert str(info.value) == f"radius must be positive, got {rs[rs <= 0.0][0]}"

    @pytest.mark.parametrize("r", [float("nan"), np.array([1.0, np.nan, -1.0])])
    def test_nan_radius_is_not_positive(self, flat, r):
        with pytest.raises(DomainError, match=r"^radius must be positive, got nan$"):
            ode_coefficients(flat, H_LINEAR, r)

    def test_sphere_singular_radius(self, sphere):
        with pytest.raises(SingularCoefficientError):
            ode_coefficients(sphere, H_LINEAR, 1.0)

    def test_homogeneous_solutions_annihilated(self, flat, sphere):
        # R^2 and e^{-2u} both solve the homogeneous first equation
        for geom in (flat, sphere, random_radial_geometry(rng_from_seed(31))):
            r2 = RadialFunction(lambda r: r * r, lambda r: 2.0 * r, lambda r: 2.0)

            def em2u(r):
                return np.exp(-2.0 * geom.radial_u(r))

            psi2 = RadialFunction(
                em2u,
                lambda r: -2.0 * geom.radial_du(r) * em2u(r),
                lambda r: (4.0 * geom.radial_du(r) ** 2 - 2.0 * geom.radial_ddu(r)) * em2u(r),
            )
            for r in (0.4, 0.8, 1.7, 2.9):
                if geom.name == "sphere" and abs(r - 1.0) < 0.2:
                    continue
                co = ode_coefficients(geom, H_LINEAR, r)
                for psi in (r2, psi2):
                    resid = psi.d2f(r) + co.p1 * psi.df(r) + co.q1 * psi(r)
                    assert abs(resid) <= 1e-9 * max(1.0, abs(psi(r)))


class TestOdeResiduals:
    def test_flat_closed_family_solves_both(self, flat):
        profile = stationary_family(flat, FamilyParams(0.7, 0.4, 1.3, 0.9), 1, (0.4, 5.0))
        r1, r2 = ode_residuals(flat, profile.H, profile.psi, 1.7)
        assert abs(r1) <= 1e-6
        assert abs(r2) <= 1e-6

    def test_sphere_closed_family_solves_both(self, sphere):
        profile = stationary_family(sphere, FamilyParams(0.2, 0.3, -1.1, 2.0), 1, (0.5, 0.95))
        lo, hi = profile.domain
        for r in np.linspace(lo + 0.05, hi - 0.02, 5):
            r1, r2 = ode_residuals(sphere, profile.H, profile.psi, float(r))
            assert abs(r1) <= 1e-6
            assert math.isnan(r2) or abs(r2) <= 1e-6

    def test_homogeneous_combination(self, sphere):
        em2u = lambda r: np.exp(-2.0 * sphere.radial_u(r))
        psi = RadialFunction(
            lambda r: 2.0 * r * r + 0.5 * em2u(r),
            lambda r: 4.0 * r - 0.5 * 2.0 * sphere.radial_du(r) * em2u(r),
            lambda r: 4.0 + 0.5 * (4.0 * sphere.radial_du(r) ** 2
                                   - 2.0 * sphere.radial_ddu(r)) * em2u(r),
        )
        r1, _ = ode_residuals(sphere, H_LINEAR, psi, 0.6)
        assert abs(r1) <= 1e-6

    @pytest.mark.parametrize("geometry", ["flat", "sphere"])
    def test_elementwise_in_the_radius(self, geometry, flat, sphere):
        # H = R^2 + 0.49: R H' - H = R^2 - 0.49 vanishes at R = 0.7 only, which
        # makes p2, q2 and the second residual nan there and nowhere else
        geom = {"flat": flat, "sphere": sphere}[geometry]
        H = RadialFunction(lambda r: r * r + 0.49, lambda r: 2.0 * r, lambda r: 2.0)
        psi = stationary_family(geom, FamilyParams(0.2, 0.1, 1.3, 0.9), 1, (0.3, 0.9)).psi
        rs = np.array([0.35, 0.5, 0.7, 0.8, 0.85])
        co = ode_coefficients(geom, H, rs)
        res = ode_residuals(geom, H, psi, rs)
        for i, r in enumerate(rs):
            one = ode_coefficients(geom, H, float(r))
            for name in ("p1", "q1", "L1", "p2", "q2", "L2"):
                np.testing.assert_array_equal(getattr(co, name)[i], getattr(one, name))
            np.testing.assert_array_equal([res[0][i], res[1][i]],
                                          ode_residuals(geom, H, psi, float(r)))
        nan_at = [False, False, True, False, False]
        for values in (co.p2, co.q2, res[1]):
            assert np.isnan(values).tolist() == nan_at
        assert not np.isnan(res[0]).any()

    def test_singular_radius_named(self, sphere):
        with pytest.raises(SingularCoefficientError, match="at R = 1.0$"):
            ode_coefficients(sphere, H_LINEAR, np.array([0.5, 1.0, 1.5]))

    def test_detects_non_solutions(self, flat):
        # psi = R with H = R: residual is exactly -1/R
        psi = RadialFunction(lambda r: r, lambda r: 1.0, lambda r: 0.0)
        r1, _ = ode_residuals(flat, H_LINEAR, psi, 1.3)
        assert r1 == pytest.approx(-1.0 / 1.3, rel=1e-12)


class TestReductionOfOrder:
    def test_trivial_coefficient(self):
        psi2 = reduction_of_order(lambda r: 0.0, RadialFunction.constant(1.0), (0.5, 2.0))
        for r in (0.5, 1.0, 1.7):
            assert psi2(r) == pytest.approx(r - 0.5, abs=1e-12)

    def test_flat_second_solution(self, flat):
        # p = -1/R, psi1 = R^2: the second solution is constant modulo R^2
        psi2 = reduction_of_order(
            lambda r: -1.0 / r,
            RadialFunction(lambda r: r * r, lambda r: 2.0 * r),
            (0.5, 3.0),
        )
        rs = np.linspace(0.5, 3.0, 20)
        coeffs, resid = lstsq_fit([lambda r: 1.0, lambda r: r * r], psi2, rs)
        assert resid <= 1e-9
        assert coeffs[0] != pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("geometry", ["flat", "sphere"])
    def test_recovers_conformal_solution(self, geometry, flat, sphere):
        # the second solution of the first equation is -e^{-2u}/2, up to the
        # anchored-P normalisation K = a(1+a u'(a)) e^{-2u(a)} and an R^2 multiple
        geom = {"flat": flat, "sphere": sphere}[geometry]
        a, b = 0.1, 0.9
        psi1 = RadialFunction(lambda r: r * r, lambda r: 2.0 * r)

        def p1(r):
            return ode_coefficients(geom, H_LINEAR, r).p1

        psi2 = reduction_of_order(p1, psi1, (a, b), n_quad=512)
        rs = np.linspace(a, b, 25)
        em2u = lambda r: np.exp(-2.0 * geom.radial_u(r))
        coeffs, resid = lstsq_fit([em2u, lambda r: r * r], psi2, rs)
        assert resid <= 1e-6
        K = a * (1.0 + a * geom.radial_du(a)) * em2u(a)
        assert coeffs[0] * K == pytest.approx(-0.5, abs=1e-6)

    def test_wronskian_matches_exponential(self, sphere):
        a, b = 0.2, 0.8
        psi1 = RadialFunction(lambda r: r * r, lambda r: 2.0 * r)

        def p1(r):
            return ode_coefficients(sphere, H_LINEAR, r).p1

        psi2 = reduction_of_order(p1, psi1, (a, b), n_quad=512)
        P = CumulativeIntegral(p1, a, b, 512)
        for r in np.linspace(a + 0.01, b - 0.01, 7):
            r = float(r)
            wr = psi1(r) * psi2.df(r) - psi2(r) * psi1.df(r)
            assert wr == pytest.approx(math.exp(-P(r)), rel=1e-6)

    def test_vanishing_psi1_rejected(self):
        with pytest.raises(DomainError):
            reduction_of_order(lambda r: 0.0, RadialFunction(lambda r: r - 1.0, lambda r: 1.0),
                               (0.5, 2.0))


class TestPsiClosedForm:
    @pytest.mark.parametrize("geometry", ["flat", "sphere"])
    def test_matches_closed_family(self, geometry, flat, sphere):
        # quadrature vs. the analytic integral, modulo the anchored constant
        geom = {"flat": flat, "sphere": sphere}[geometry]
        a1, b1, a2, b2 = 0.3, 0.8, 1.1, 0.6
        r_range = (0.1, 0.9) if geometry == "sphere" else (0.1, 10.0)
        em2u = lambda r: np.exp(-2.0 * geom.radial_u(r))
        H = closed_family_H(geom, a1, b1)
        psi = psi_closed_form(geom, H, a2, b2, r_range, n_quad=512)
        shift = -b1 * b1 * em2u(r_range[0]) / r_range[0] ** 2
        for r in np.linspace(r_range[0], r_range[1], 15):
            r = float(r)
            exact = a2 * r * r + b2 * em2u(r) - b1 * b1 * em2u(r) ** 2 / (r * r)
            expect = exact - shift * em2u(r)
            assert psi(r) == pytest.approx(expect, rel=1e-6, abs=1e-9)

    def test_linear_profile_kills_integral(self, sphere):
        psi = psi_closed_form(sphere, H_LINEAR, 2.0, 3.0, (0.1, 0.9))
        for r in (0.1, 0.5, 0.85):
            em2u = math.exp(-2.0 * sphere.radial_u(r))
            assert psi(r) == pytest.approx(2.0 * r * r + 3.0 * em2u, rel=1e-12)

    @pytest.mark.parametrize("geometry", ["flat", "sphere"])
    def test_second_derivative_solves_the_first_ode(self, geometry):
        # Psi'' is assembled in closed form, not differenced: it must solve the first
        # ODE with Psi and Psi', and agree with the Richardson difference of Psi'
        geom = geometry_by_name(geometry)
        H = RadialFunction(lambda r: 0.3 * r + 0.2 / r, lambda r: 0.3 - 0.2 / r**2,
                           lambda r: 0.4 / r**3)
        psi = psi_closed_form(geom, H, 0.7, 1.1, (0.3, 0.9))
        rs = np.linspace(0.35, 0.85, 7)
        r1, _ = ode_residuals(geom, H, psi, rs)
        assert np.max(np.abs(r1)) <= 1e-10
        d2 = psi.d2f(rs)
        fd = richardson_derivative(psi.df, rs)
        assert np.max(np.abs(d2 - fd) / np.maximum(np.abs(d2), 1.0)) <= 1e-9

    def test_quadratic_profile_integral(self, flat):
        # H = R^2: the source integrand is R^3/2, so the integral is R^4/8
        H = RadialFunction(lambda r: r * r, lambda r: 2.0 * r, lambda r: 2.0)
        psi = psi_closed_form(flat, H, 0.0, 0.0, (0.5, 3.0))
        for r in (0.8, 1.5, 2.5):
            assert psi(r) == pytest.approx(r**4 / 8.0 - 0.5**4 / 8.0, rel=1e-10)


class TestStationaryFamily:
    def test_flat_unit_family_is_holomorphic_line(self, flat):
        profile = stationary_family(flat, FamilyParams(0.0, 0.0, 1.0, 0.0), 1, (0.3, 3.0))
        section = profile.section()
        xi = 1.2 * np.exp(0.5j)
        assert section.F(xi) == pytest.approx(1j * xi)
        sl = slopes(section, xi)
        assert abs(sl.sigma) <= 1e-12
        assert sl.lam == pytest.approx(1.0)

    def test_sphere_shorthand_mapping(self, sphere):
        # a2 = C2 - 2 B2, b2 = 4 B2 turns the family into the torus B2 + C2 R^2 + B2 R^4,
        # since e^{-2u} = (1 + R^2)^2 / 4 on the sphere; B2 != 1 tells x 4 B2 from 4 / B2
        for b2, c2 in ((2.0, 1.0), (0.5, 3.0)):
            params = FamilyParams(0.0, 0.0, c2 - 2.0 * b2, 4.0 * b2)
            psi = stationary_family(sphere, params, 1, (0.2, 0.9)).psi
            torus = TorusFamily(b2, c2).psi()
            for r in (0.25, 0.5, 0.8):
                got = (psi(r), psi.df(r), psi.d2f(r))
                assert got == pytest.approx((torus(r), torus.df(r), torus.d2f(r)),
                                            rel=1e-12, abs=1e-12)

    def test_sphere_family_is_stationary(self, sphere):
        profile = stationary_family(sphere, FamilyParams(0.0, 1.0, 1.0, 1.0), 1, (0.05, 0.95))
        section = profile.section()
        lo, hi = profile.domain
        for r in np.linspace(lo + 0.08 * (hi - lo), hi - 0.08 * (hi - lo), 5):
            assert abs(el_residual(section, float(r) * np.exp(0.7j))) <= 1e-6

    def test_zero_a2_redirected(self, flat):
        with pytest.raises(DegenerateFamilyRedirect):
            stationary_family(flat, FamilyParams(0.0, 0.0, 0.0, 1.0))

    def test_reversed_range_rejected(self, flat):
        with pytest.raises(DomainError, match="invalid requested range"):
            stationary_family(flat, FamilyParams(0.0, 0.0, 1.0, 0.0), 1, (2.0, 1.0))

    def test_section_undefined_at_the_origin(self, flat):
        section = stationary_family(flat, FamilyParams(0.0, 0.0, 1.0, 0.0), 1, (0.3, 3.0)).section()
        with pytest.raises(DomainError, match="angular mode undefined at xi = 0"):
            section.F(np.array([1.0 + 0j, 0j]))

    def test_everywhere_negative_psi_rejected(self, flat):
        with pytest.raises(EmptyDomainError):
            stationary_family(flat, FamilyParams(0.0, 0.0, -1.0, -1.0))

    def test_domain_trimming(self, flat):
        # psi = R^2 - 1 < 0 below R = 1
        profile = stationary_family(flat, FamilyParams(0.0, 0.0, 1.0, -1.0), 1, (0.3, 3.0))
        lo, hi = profile.domain
        assert lo == pytest.approx(1.0, abs=2e-3)
        assert hi == pytest.approx(3.0)

    def test_domain_stops_at_a_sign_change_of_one_plus_r_du(self, sphere):
        # 1 + R u' vanishes at R = 1 on the sphere, where no node of this scan lands:
        # the range splits there, and the longer run, the second, is the domain
        profile = stationary_family(sphere, FamilyParams(0.4, 0.3, 1.0, 0.5), 1, (0.5, 2.0))
        lo, hi = profile.domain
        assert 1.0 < lo < 1.001 and hi == 2.0

    def test_first_longest_run_is_the_domain(self, sphere):
        # runs (0.3, 1) and (1, 1.5): the longer is the first
        profile = stationary_family(sphere, FamilyParams(0.4, 0.3, 1.0, 0.5), 1, (0.3, 1.5))
        lo, hi = profile.domain
        assert lo == 0.3 and 0.999 < hi < 1.0

    def test_rescaling_preserves_classification(self, flat):
        # psi = 2 - 1.2 R^2 keeps both domains at (0.4, sqrt(5/3))
        base = stationary_family(flat, FamilyParams(0.0, 0.0, -1.2, 2.0), 1, (0.4, 2.0))
        scaled = stationary_family(flat, FamilyParams(0.0, 0.0, -3.6, 6.0), 1, (0.4, 2.0))
        for r in (0.5, 0.9, 1.2):
            assert scaled.psi(r) == pytest.approx(3.0 * base.psi(r), rel=1e-12)
            cls_a = slopes(base.section(), complex(r)).classify()
            cls_b = slopes(scaled.section(), complex(r)).classify()
            assert cls_a is cls_b

    def test_both_branches(self, flat):
        for branch in (1, -1):
            profile = stationary_family(flat, FamilyParams(0.1, 0.0, 1.0, 0.5), branch, (0.4, 2.0))
            section = profile.section()
            assert abs(el_residual(section, complex(1.1))) <= 1e-7
            sl = slopes(section, complex(1.1))
            assert math.copysign(1.0, sl.lam) == branch

    @pytest.mark.parametrize("case", ["flat", "sphere", "bump", "torus", "quartic"])
    def test_analytic_derivatives_match_fd(self, case, request):
        # the H', H'', psi', psi'' of the one rule, rotsym._radial_sum, against the one
        # difference rule: f' with the difference of f, f'' with that of f'. On the bump,
        # u'' is not fixed by u'; only the torus and the off-family quartic carry R^4
        if case == "torus":
            fns, (lo, hi) = [TorusFamily(1.0, 3.0).psi()], (0.3, 2.5)
        elif case == "quartic":
            profile = off_family_profile(rng_from_seed(0), request.getfixturevalue("flat"),
                                         (0.3, 2.5))
            fns, (lo, hi) = [profile.psi], profile.domain
        else:
            profile = stationary_family(request.getfixturevalue(case),
                                        FamilyParams(0.4, -0.3, 0.9, 1.4), 1, (0.3, 0.95))
            fns, (lo, hi) = [profile.H, profile.psi], profile.domain
        for r in np.linspace(lo + 0.05, hi - 0.05, 5):
            r = float(r)
            for fn in fns:
                assert fn.df(r) == pytest.approx(
                    richardson_derivative(fn.f, r), rel=1e-6, abs=1e-8
                )
                assert fn.d2f(r) == pytest.approx(
                    richardson_derivative(fn.df, r), rel=1e-5, abs=1e-5
                )

    @given(geometry=st.sampled_from(["flat", "sphere", "bump"]),
           a1=st.floats(-0.5, 0.5), b1=st.floats(-0.5, 0.5), a2=st.floats(0.3, 2.0),
           a2_sign=st.sampled_from([1.0, -1.0]), b2=st.floats(0.5, 2.5),
           ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_a_radius_is_its_slice_of_an_array_call(self, flat, sphere, bump, geometry,
                                                     a1, b1, a2, a2_sign, b2, ts):
        # the elementwise contract of the rule: H, psi, their two derivatives and both
        # residuals at a Python-float radius against that radius's slice of one array call.
        # numpy's scalar and array exp may differ in the last bit, so the contract is a
        # bound: over 9000 seeded members on the three geometries the worst was 8.9e-16
        # of max(|x|, 1) for the profiles and 1.4e-15 of the residual's largest term
        geom = {"flat": flat, "sphere": sphere, "bump": bump}[geometry]
        try:
            profile = stationary_family(geom, FamilyParams(a1, b1, a2_sign * a2, b2), 1,
                                        GEOMETRY_RANGES[geometry])
        except (DomainError, EmptyDomainError):
            assume(False)
        lo, hi = comfortable_range(profile)
        rs = lo + (hi - lo) * np.array(ts)
        H, psi = profile.H, profile.psi
        fns = [H, lambda r: H.df(r), lambda r: H.d2f(r),
               psi, lambda r: psi.df(r), lambda r: psi.d2f(r)]
        stack = [np.broadcast_to(fn(rs), rs.shape) for fn in fns]
        co = ode_coefficients(geom, H, rs)
        residuals = ode_residuals(geom, H, psi, rs)
        scales = [np.max(np.abs([stack[5], p * stack[4], q * stack[3], L]), axis=0)
                  for p, q, L in ((co.p1, co.q1, co.L1), (co.p2, co.q2, co.L2))]
        for i, r in enumerate(rs.tolist()):
            for fn, values in zip(fns, stack):
                assert abs(fn(r) - values[i]) <= 1e-14 * max(abs(values[i]), 1.0)
            for one, values, scale in zip(ode_residuals(geom, H, psi, r), residuals, scales):
                assert math.isnan(one) == math.isnan(values[i])
                if not math.isnan(one):
                    assert abs(one - values[i]) <= 1e-14 * max(scale[i], 1.0)

    def test_section_matches_closed_forms(self, sphere):
        # F = G e^{i theta}, d F = (G' + G/R)/2, dbar F = e^{2 i theta} (G' - G/R)/2,
        # evaluated in this order, to the last bit
        profile = stationary_family(sphere, FamilyParams(0.4, -0.3, 0.9, 1.4), -1, (0.3, 0.95))
        F = profile.section().F
        for r in np.linspace(*profile.domain, 7)[1:-1]:
            xi = r * complex(math.cos(2.1 * r), math.sin(2.1 * r))
            r = abs(xi)
            phase = xi / r
            G, dG = profile.G_jet(r)
            assert G == profile.G(r)
            assert F(xi) == G * xi / r
            assert F.jet(xi) == (G * xi / r, 0.5 * (dG + G / r), 0.5 * phase * phase * (dG - G / r))


def seeded_torus_tuples(seed, count):
    """``(B2, C2)`` drawn from the admissible cone ``B2 >= 0``, ``C2 >= -2 B2``:
    ``B2 ~ U(0, 2)``, then ``C2 ~ U(-2 B2, 4)``."""
    rng = rng_from_seed(seed)
    return [(b2, float(rng.uniform(-2.0 * b2, 4.0)))
            for b2 in rng.uniform(0.0, 2.0, count).tolist()]


#: torus members: the symmetric C2 = 2 B2, C2 < 0 (the cone's edge C2 = -2 B2 among
#: them), B2 = 0, and seeded draws from the cone
TORUS_TUPLES = [(1.0, 2.0), (0.3, 0.6), (1.0, -1.5), (2.0, -4.0), (0.0, 1.0), (0.0, 3.5),
                *seeded_torus_tuples(0, 24)]
#: radii of the torus oracle, the poles' neighbourhoods aside
TORUS_RADII = np.linspace(0.05, 4.0, 400)


class TestTorusIsAFamilyMember:
    """Claim 5's tori are claim 4's ``H = 0`` members. On the round sphere
    ``e^{-2u} = (1 + R^2)^2 / 4``, so the quartic ``B2 + C2 R^2 + B2 R^4`` is the
    family's ``Psi = A2 R^2 + B2' e^{-2u}`` with ``A2 = C2 - 2 B2`` and ``B2' = 4 B2``,
    the torus written in ``R^m`` alone and the family in ``R^2`` and ``e^{-2u}``."""

    @staticmethod
    def family_psi(sphere, b2, c2):
        return _radial_sum(((c2 - 2.0 * b2, 2, 0), (4.0 * b2, 0, 1)), sphere)

    def test_quartic_is_the_family_psi(self, sphere):
        # measured worst over these tuples and radii: 7.1e-15 of max(1, |x|), in Psi'';
        # bound 1e-13, a margin of 14
        for b2, c2 in TORUS_TUPLES:
            torus, family = TorusFamily(b2, c2).psi(), self.family_psi(sphere, b2, c2)
            for name in ("f", "df", "d2f"):
                want = getattr(torus, name)(TORUS_RADII)
                err = np.abs(getattr(family, name)(TORUS_RADII) - want)
                assert np.max(err / np.maximum(1.0, np.abs(want))) <= 1e-13, (b2, c2, name)

    def test_symmetric_member_is_the_degenerate_family(self, sphere):
        # C2 = 2 B2 is A2 = 0, the degenerate family of H = 0, whose Psi is the
        # quadrature path's e^{-2u} (4 B2 + int 0); measured worst 8.9e-16 of max(1, |x|),
        # bound 1e-14, a margin of 11
        for b2 in (0.3, 1.0, 2.0, *(b2 for b2, _ in seeded_torus_tuples(1, 8))):
            deg = degenerate_family(sphere, RadialFunction.constant(0.0), 4.0 * b2, 1,
                                    (0.1, 0.95))
            torus = TorusFamily(b2, 2.0 * b2).psi()
            rs = np.linspace(*deg.domain, 200)
            for name in ("f", "df", "d2f"):
                want = getattr(torus, name)(rs)
                err = np.abs(getattr(deg.psi, name)(rs) - want)
                assert np.max(err / np.maximum(1.0, np.abs(want))) <= 1e-14, (b2, name)

    def test_slope_determinant_is_the_family_one(self, sphere):
        # the family's det_factor A2 (1 + R u')^2, against the slopes of the torus section;
        # lambda^2 - |sigma|^2 cancels, so the error is relative to max(1, lambda^2 +
        # |sigma|^2): measured worst 3.1e-15, bound 1e-13, a margin of 32. B2 = C2 = 0
        # is left out: Psi = 0 there, and the section has no slopes
        rs = TORUS_RADII[::4, None]
        xi = _polar(rs, np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False))
        want_d = (1.0 + rs * sphere.radial_du(rs)) ** 2
        for b2, c2 in TORUS_TUPLES:
            sl = slopes(torus_section(TorusFamily(b2, c2)), xi)
            scale = np.maximum(1.0, sl.lam**2 + np.abs(sl.sigma) ** 2)
            err = np.abs(sl.det_factor - (c2 - 2.0 * b2) * want_d) / scale
            assert np.max(err) <= 1e-13, (b2, c2)


class TestDegenerateFamily:
    def test_flat_constant_profile(self, flat):
        profile = degenerate_family(flat, RadialFunction.constant(0.0), 1.0, 1, (0.3, 3.0))
        section = profile.section()
        xi = 1.4 * np.exp(0.3j)
        assert section.F(xi) == pytest.approx(1j * xi / abs(xi))
        sl = slopes(section, xi)
        assert abs(sl.det_factor) <= 1e-14

    def test_sphere_constant_profile(self, sphere):
        profile = degenerate_family(sphere, RadialFunction.constant(0.0), 1.0, 1, (0.1, 0.9))
        for r in (0.2, 0.5, 0.8):
            assert profile.psi(r) == pytest.approx((1.0 + r * r) ** 2 / 4.0, rel=1e-12)
            sl = slopes(profile.section(), r * np.exp(0.6j))
            assert abs(sl.det_factor) <= 1e-9 * (1.0 + sl.lam**2 + abs(sl.sigma) ** 2)

    def test_linear_profile_reduces_to_conformal_factor(self, sphere):
        profile = degenerate_family(sphere, H_LINEAR, 2.0, 1, (0.1, 0.9))
        for r in (0.15, 0.6):
            assert profile.psi(r) == pytest.approx(
                2.0 * math.exp(-2.0 * sphere.radial_u(r)), rel=1e-12
            )

    def test_generic_profile_degenerate_on_grid(self, flat):
        rng = rng_from_seed(33)
        c = rng.normal(size=3) * 0.5
        H = RadialFunction(
            lambda r: c[0] * r + c[1] * r * r + c[2] * r**3,
            lambda r: c[0] + 2 * c[1] * r + 3 * c[2] * r * r,
            lambda r: 2 * c[1] + 6 * c[2] * r,
        )
        profile = degenerate_family(flat, H, 2.0, 1, (0.4, 2.5))
        lo, hi = profile.domain
        for r in np.linspace(lo + 0.05, hi - 0.05, 7):
            sl = slopes(profile.section(), float(r) * np.exp(1.9j))
            assert abs(sl.det_factor) <= 1e-9 * (1.0 + sl.lam**2 + abs(sl.sigma) ** 2)


class TestCustomGeometry:
    """The whole chain on generic radial profiles (nonzero u', u'')."""

    @pytest.mark.parametrize("seed", [1, 7, 13])
    def test_family_solves_odes_and_stationarity(self, seed):
        geom = random_radial_geometry(rng_from_seed(seed))
        profile = stationary_family(geom, FamilyParams(0.3, -0.4, 1.1, 0.8), 1, (0.3, 3.5))
        section = profile.section()
        lo, hi = comfortable_range(profile)
        for r in np.linspace(lo, hi, 5):
            r1, r2 = ode_residuals(geom, profile.H, profile.psi, float(r))
            assert abs(r1) <= 1e-9
            assert abs(r2) <= 1e-9
            assert abs(el_residual(section, float(r) * np.exp(0.8j))) <= 1e-7

    def test_degenerate_family_on_bump_geometry(self):
        geom = random_radial_geometry(rng_from_seed(7))
        H = RadialFunction(lambda r: 0.2 * r * r, lambda r: 0.4 * r, lambda r: 0.4)
        profile = degenerate_family(geom, H, 1.0, 1, (0.3, 2.5))
        section = profile.section()
        for r in (0.5, 1.2, 2.0):
            sl = slopes(section, r * np.exp(0.1j))
            assert abs(sl.det_factor) <= 1e-12

    def test_degenerate_family_empty_domain(self, flat):
        with pytest.raises(EmptyDomainError):
            degenerate_family(flat, RadialFunction.constant(0.0), -5.0, 1, (0.5, 2.0))

    def test_geometry_without_radial_profile_rejected(self):
        tilted = ConformalGeometry("tilted", u=lambda z: 0.1 * z.real, du=lambda z: 0.05 + 0j)
        calls = [
            lambda: ode_coefficients(tilted, H_LINEAR, 1.0),
            lambda: psi_closed_form(tilted, H_LINEAR, 1.0, 1.0, (0.5, 2.0)),
            lambda: stationary_family(tilted, FamilyParams(0.0, 0.0, 1.0, 1.0)),
            lambda: degenerate_family(tilted, H_LINEAR, 1.0, 1, (0.5, 2.0)),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="no rotationally symmetric radial profile"):
                call()


class TestComfortableRange:
    """The ``Psi >= 0.1 max`` contour of a profile, also kept
    ``NULL_CIRCLE_STANDOFF`` off a zero of ``1 + R u'``, or a 6 percent trim of
    its domain when the contour is narrower than 15 percent of it."""

    def test_walks_in_from_the_null_circle(self, sphere):
        # the domain starts at R = 1.00025, next to the zero of 1 + R u' at R = 1
        profile = stationary_family(sphere, FamilyParams(0.4, 0.3, 1.0, 0.5), 1, (0.5, 2.0))
        lo, hi = profile.domain
        rs = np.linspace(lo, hi, 513)
        d = np.abs(1.0 + rs * sphere.radial_du(rs))
        assert d[0] < 1e-3 and np.all(profile.psi(rs) >= 0.1 * np.max(profile.psi(rs)))
        first = np.argmax(d >= NULL_CIRCLE_STANDOFF)
        assert comfortable_range(profile) == (rs[first], hi)
        assert 1.02 < rs[first] < 1.023 and d[first - 1] < NULL_CIRCLE_STANDOFF <= d[first]

    @pytest.mark.parametrize("params", [(0.2, 0.1, 1.0, 1.0), (0.1, 0.2, -1.0, 2.0)])
    def test_sphere_draw_range_is_clear_of_the_circle(self, sphere, params):
        # |1 + R u'| is 0.051 at R = 0.95, the edge of the sphere's draw range
        profile = stationary_family(sphere, FamilyParams(*params), 1, (0.15, 0.95))
        assert profile.domain == comfortable_range(profile) == (0.15, 0.95)

    @staticmethod
    def peaked(flat, width):
        bell = lambda r: np.exp(-(((r - 1.0) / width) ** 2))
        psi = RadialFunction(bell, lambda r: -2.0 * (r - 1.0) / width**2 * bell(r))
        return RotSymProfile(flat, RadialFunction.constant(0.0), psi, 1, (0.5, 1.5))

    @pytest.mark.parametrize("width", [0.01, 0.049])
    def test_narrow_contour_falls_back_to_the_trim(self, flat, width):
        lo, hi = 0.5, 1.5
        pad = 0.06 * (hi - lo)
        assert comfortable_range(self.peaked(flat, width)) == (lo + pad, hi - pad)

    def test_contour_just_wider_than_the_bound_is_kept(self, flat):
        profile = self.peaked(flat, 0.0505)
        rs = np.linspace(0.5, 1.5, 513)
        inside = rs[profile.psi(rs) >= 0.1]
        assert 0.15 <= inside[-1] - inside[0] < 0.16
        assert comfortable_range(profile) == (inside[0], inside[-1])


class TestProfileValidation:
    @pytest.mark.parametrize("domain", [(1.5, 0.5), (0.0, 1.0), (0.5, 0.5)])
    def test_invalid_domain_rejected(self, flat, domain):
        with pytest.raises(DomainError, match="invalid radial domain"):
            RotSymProfile(flat, RadialFunction.constant(0.0), RadialFunction.constant(1.0), 1,
                          domain)

    def test_negative_psi_rejected(self, flat):
        with pytest.raises(DomainError):
            RotSymProfile(
                geometry=flat,
                H=RadialFunction.constant(0.0),
                psi=RadialFunction.constant(-1.0),
                branch=1,
                domain=(0.5, 1.5),
            )

    def test_bad_branch_rejected(self, flat):
        with pytest.raises(DomainError):
            RotSymProfile(
                geometry=flat,
                H=RadialFunction.constant(0.0),
                psi=RadialFunction.constant(1.0),
                branch=2,
                domain=(0.5, 1.5),
            )

    def test_profile_derivative_undefined_where_psi_vanishes(self, flat):
        # Psi = (R - 1)^2 >= 0 on the domain, with W = 0 at R = 1
        profile = RotSymProfile(flat, RadialFunction.constant(0.0),
                                RadialFunction(lambda r: (r - 1.0) ** 2, lambda r: 2.0 * (r - 1.0),
                                               lambda r: 2.0), 1, (0.5, 1.5))
        profile.G_jet(1.2)
        with pytest.raises(DomainError, match="Psi = 0"):
            profile.G_jet(1.0)
        with pytest.raises(DomainError, match=r"Psi = 0 \(R = 1.0\)$"):
            profile.G_jet(np.linspace(0.5, 1.5, 201))

    def test_section_derivatives_match_fd(self, flat):
        profile = stationary_family(flat, FamilyParams(0.2, 0.1, 1.0, 0.4), 1, (0.5, 2.5))
        section = profile.section()
        for xi in (0.9 + 0.4j, 1.5 - 0.8j):
            fx, fy = _plane_partials(section.F, xi)
            fd = (section.F(xi), 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy))
            assert section.F.jet(xi) == pytest.approx(fd, abs=1e-7)
