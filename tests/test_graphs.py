"""Slope invariants, induced metrics, stationarity residuals, variations."""

import hashlib
import math

import numpy as np
import pytest

from neutralkahler import (
    AnnulusGrid,
    FamilyParams,
    GraphSection,
    SurfaceClass,
    TorusFamily,
    area,
    bump_basis,
    conjugate_section,
    el_residual,
    export_classification_csv,
    export_congruence,
    first_variation,
    first_variations,
    induced_metric,
    lagrangian_section,
    polynomial_section,
    pullback_determinant,
    slopes,
    stationary_family,
    stokes_check,
    torus_section,
)
from neutralkahler.ambient import (
    ROUND_SPHERE,
    ConformalGeometry,
    TangentPoint,
    ambient_frame,
    radial_geometry,
    theta_form,
)
from neutralkahler.cli import RunConfig, _section_and_grid, run
from neutralkahler.errors import (
    DomainError,
    QuadratureError,
    SingularResidualError,
    UnsupportedGeometryError,
)
from neutralkahler.graphs import (
    _RESIDUAL_BLOCK,
    _STENCIL,
    _STEPS,
    NULL_ATOL,
    SlopeData,
    _jacobian,
    _residual_map,
    radial_bump,
)
from neutralkahler.numerics import ComplexField, RadialFunction, _plane_partials, _polar
from neutralkahler.rotsym import RotSymProfile, comfortable_range, degenerate_family
from neutralkahler.sampling import (
    geometry_by_name,
    off_family_profile,
    random_family_profiles,
    random_holomorphic_section,
    random_lagrangian_section,
    random_polynomial_section,
    random_radial_geometry,
    rng_from_seed,
)


def i_xi(flat):
    return polynomial_section(flat, {(1, 0): 1j})


def i_r2(flat, domain, psi=RadialFunction(lambda r: r**4, lambda r: 4.0 * r**3)):
    """``F = i R^2 e^{i theta}``: the profile ``H = 0``, ``Psi = R^4`` (or ``psi``)."""
    return RotSymProfile(flat, RadialFunction.constant(0.0), psi, 1, domain).section()


def xibar(flat):
    return polynomial_section(flat, {(0, 1): 1.0})


class TestSlopes:
    def test_holomorphic_line(self, flat):
        sl = slopes(i_xi(flat), 0.7 - 0.2j)
        assert sl.sigma == pytest.approx(0.0)
        assert sl.rho == pytest.approx(1j)
        assert sl.lam == pytest.approx(1.0)
        assert sl.det_factor == pytest.approx(1.0)

    def test_antiholomorphic_line(self, flat):
        sl = slopes(xibar(flat), 0.7 - 0.2j)
        assert sl.sigma == pytest.approx(-1.0)
        assert sl.rho == pytest.approx(0.0)
        assert sl.lam == pytest.approx(0.0)

    def test_torus_null_circle(self):
        section = torus_section(TorusFamily(1.0, 0.0))
        sl = slopes(section, complex(1.0))
        assert abs(sl.sigma) <= 1e-12
        assert abs(sl.lam) <= 1e-12

    @pytest.mark.parametrize("shape", [(), (3,), (2, 5)])
    def test_constant_field_slopes_are_shaped_like_the_points(self, flat, shape):
        # the jet of a constant field is three scalars, and flat du is zero: the
        # slopes on an array of points are arrays of its shape all the same
        c = 2.0 + 1.0j
        section = GraphSection(ComplexField(lambda xi: c, lambda xi: (c, 0.0, 0.0)), flat)
        sl = slopes(section, np.full(shape, 0.3 + 0.4j))
        assert isinstance(sl.sigma, np.ndarray) and isinstance(sl.rho, np.ndarray)
        for v in (sl.sigma, sl.rho, sl.lam, sl.det_factor):
            assert np.shape(v) == shape and np.all(v == 0.0)
        # at a Python point the slopes stay Python scalars
        for point_section in (section, i_xi(flat)):
            sl = slopes(point_section, 0.3 + 0.4j)
            assert type(sl.sigma) in (float, complex) and type(sl.rho) in (float, complex)

    def test_lambda_is_im_rho_exactly(self, sphere):
        rng = rng_from_seed(21)
        section = random_polynomial_section(rng, sphere)
        sl = slopes(section, 0.3 + 0.8j)
        assert sl.lam == sl.rho.imag
        ss = sl.sigma.real**2 + sl.sigma.imag**2
        assert sl.det_factor == sl.lam * sl.lam - ss


class TestPredicates:
    """Holomorphic means ``sigma = 0`` and lagrangian ``lam = 0``; on these
    closed-form sections each vanishes to 1e-9 or stays clear of it."""

    def test_holomorphic_not_lagrangian(self, flat):
        s = i_xi(flat)
        sl = slopes(s, 1.0 + 0.5j)
        assert abs(sl.sigma) < 1e-9
        assert not abs(sl.lam) < 1e-9

    def test_lagrangian_not_holomorphic(self, flat):
        s = xibar(flat)
        sl = slopes(s, 1.0 + 0.5j)
        assert not abs(sl.sigma) < 1e-9
        assert abs(sl.lam) < 1e-9

    def test_torus_meridian_both(self):
        s = torus_section(TorusFamily(1.0, 0.0))
        sl = slopes(s, complex(1.0))
        assert abs(sl.sigma) < 1e-9
        assert abs(sl.lam) < 1e-9

    def test_gradient_sections_are_lagrangian(self, flat, sphere):
        rng = rng_from_seed(27)
        for geom in (flat, sphere):
            section = random_lagrangian_section(rng, geom)
            for xi in (0.3 + 0.4j, -1.1 + 0.2j, 0.8 - 1.3j):
                sl = slopes(section, xi)
                assert abs(sl.lam) <= 1e-12 * max(1.0, abs(sl.rho))
        tilted = ConformalGeometry("tilted", u=lambda z: 0.1 * z.real, du=lambda z: 0.05 + 0j)
        with pytest.raises(NotImplementedError):
            lagrangian_section(tilted, {(1, 1): 1.0})

    def test_gradient_sections_over_the_reflected_sphere_are_lagrangian(self, sphere):
        # the reflection sphere~ carries the transposed e^{-2u} matrix of the sphere
        reflected = conjugate_section(polynomial_section(sphere, {(1, 0): 1.0})).geometry
        assert reflected.name == "sphere~"
        rng = rng_from_seed(28)
        for _ in range(4):
            section = random_lagrangian_section(rng, reflected)
            for xi in (0.4 + 0.7j, -1.1 + 0.2j, 0.8 - 1.3j, 2.5 + 0.1j):
                sl = slopes(section, xi)
                assert abs(sl.lam) <= 1e-12 * max(1.0, abs(sl.rho))

    def test_a_geometry_named_sphere_is_not_the_sphere(self, bump):
        # the e^{-2u} polynomial is the geometry's, not its name's: a bump built under
        # the name "sphere" has none
        mislabelled = radial_geometry("sphere", bump.u_of_R)
        assert mislabelled.inverse_factor is None
        with pytest.raises(UnsupportedGeometryError, match="'sphere'"):
            lagrangian_section(mislabelled, {(2, 1): 0.3 + 0.1j, (1, 1): 0.5})

    def test_a_radial_geometry_carries_a_polynomial_only_when_given_one(self, sphere, tmp_path):
        # the round sphere's own radial profile says nothing of e^{-2u}: refused as
        # built, accepted once _replace supplies ROUND_SPHERE
        round_ = radial_geometry("round", sphere.u_of_R)
        torus_F = torus_section(TorusFamily(1.0, 5.0)).F
        grid = AnnulusGrid(0.3, 3.0, 4, 4)
        assert round_.inverse_factor is None
        with pytest.raises(UnsupportedGeometryError, match="'round'"):
            lagrangian_section(round_, {(1, 1): 1.0})
        with pytest.raises(DomainError, match="'round'"):
            export_congruence(GraphSection(torus_F, round_), grid, 1.0, "csv", tmp_path / "r.csv")
        given = round_._replace(inverse_factor=ROUND_SPHERE)
        sl = slopes(lagrangian_section(given, {(1, 1): 1.0}), 0.4 + 0.7j)
        assert abs(sl.lam) <= 1e-12
        assert export_congruence(GraphSection(torus_F, given), grid, 1.0, "csv",
                                 tmp_path / "r.csv") == 16


class TestInducedMetric:
    def test_riemannian_line(self, flat):
        im = induced_metric(i_xi(flat), 0.4 + 1.0j)
        assert im.determinant == pytest.approx(1.0)
        assert im.classification is SurfaceClass.RIEMANNIAN

    def test_lorentz_line(self, flat):
        im = induced_metric(xibar(flat), 0.4 + 1.0j)
        assert im.determinant == pytest.approx(-1.0)
        assert im.classification is SurfaceClass.LORENTZ

    def test_matrix_layout(self, sphere):
        xi = 0.5 + 0.5j
        section = random_polynomial_section(rng_from_seed(22), sphere)
        sl = slopes(section, xi)
        im = induced_metric(section, xi)
        w = sphere.conformal_factor(xi)
        assert im.matrix[0, 0] == pytest.approx(1j * sl.sigma * w)
        assert im.matrix[0, 1] == pytest.approx(-sl.lam * w)
        assert im.matrix[1, 0] == pytest.approx(-sl.lam * w)
        assert im.matrix[1, 1] == pytest.approx(-1j * sl.sigma.conjugate() * w)
        assert im.determinant == pytest.approx(sl.det_factor * w * w, rel=1e-10)

    def test_degenerate_family_everywhere_degenerate(self, sphere):
        h = RadialFunction(lambda r: 0.4 * r * r, lambda r: 0.8 * r, lambda r: 0.8)
        section = degenerate_family(sphere, h, 1.5, r_range=(0.1, 0.9)).section()
        for r in (0.2, 0.45, 0.8):
            im = induced_metric(section, r * np.exp(0.9j))
            assert im.classification is SurfaceClass.DEGENERATE

    def test_classification_trichotomy(self, flat, sphere):
        rng = rng_from_seed(23)
        for geom in (flat, sphere):
            for _ in range(250):
                section = random_polynomial_section(rng, geom)
                xi = complex(*rng.normal(size=2))
                sl = slopes(section, xi)
                lam2, ss = sl.lam**2, abs(sl.sigma) ** 2
                cls = sl.classify()
                if abs(sl.det_factor) <= 1e-9 * (lam2 + ss + 1e-30):
                    assert cls in (SurfaceClass.DEGENERATE, SurfaceClass.TOTALLY_NULL)
                elif lam2 > ss:
                    assert cls is SurfaceClass.RIEMANNIAN
                else:
                    assert cls is SurfaceClass.LORENTZ


class TestPullbackOracle:
    def test_flat_lines(self, flat):
        assert pullback_determinant(i_xi(flat), 1.1 - 0.3j) == pytest.approx(1.0, rel=1e-8)
        assert pullback_determinant(xibar(flat), 1.1 - 0.3j) == pytest.approx(-1.0, rel=1e-8)

    def test_torus_midring(self):
        section = torus_section(TorusFamily(1.0, 0.0))
        xi = 0.5 * np.exp(0.4j)
        d1 = induced_metric(section, xi).determinant
        d2 = pullback_determinant(section, xi)
        assert d2 == pytest.approx(d1, rel=1e-6)

    def test_random_sections(self, flat, sphere):
        rng = rng_from_seed(24)
        for geom in (flat, sphere):
            for _ in range(50):
                section = random_polynomial_section(rng, geom)
                xi = complex(*rng.normal(size=2))
                sl = slopes(section, xi)
                if abs(sl.det_factor) < 1e-3 * (sl.lam**2 + abs(sl.sigma) ** 2 + 1e-6):
                    continue
                d1 = induced_metric(section, xi).determinant
                d2 = pullback_determinant(section, xi)
                assert d2 == pytest.approx(d1, rel=1e-6)

    @pytest.mark.parametrize("name", ["flat", "sphere"])
    def test_reads_no_jet(self, name):
        # a jet that is wrong everywhere moves the slopes, not the pullback: the
        # oracle differences F's values alone
        geom = geometry_by_name(name)
        section = random_polynomial_section(rng_from_seed(45), geom)
        F = section.F
        wrong = GraphSection(ComplexField(F.evaluator, lambda z: (F(z), 3.0 * z, 0.7 - z)), geom)
        xi = _annulus_points(0.3, 1.8)
        assert np.array_equal(pullback_determinant(wrong, xi), pullback_determinant(section, xi))
        assert np.all(slopes(wrong, xi).rho != slopes(section, xi).rho)

    def test_plane_partials_are_eight_values_and_one_stencil(self):
        # the oracle's one stencil, bit for bit: F at the eight arms, central differences
        # at the steps h and h/2, extrapolated per direction
        calls = []

        def ev(z):
            calls.append(z)
            return z * z * z.conjugate() + 0.3j * z.conjugate() ** 2

        for xi in (0.8 - 0.3j, 2.5 + 1.5j):
            calls.clear()
            got = _plane_partials(ev, xi)
            assert len(calls) == 8
            h = 1e-3 * max(1.0, abs(xi))
            want = [(4.0 * (ev(xi + a * h / 2) - ev(xi - a * h / 2)) / h
                     - (ev(xi + a * h) - ev(xi - a * h)) / (2.0 * h)) / 3.0 for a in (1, 1j)]
            assert got == want


#: floors of det_oracle and stokes at the default ``nklab verify --suite graphs`` runs
#: (flat and sphere, seeds 0-3), over 5x the worst value measured there (1.72e-10 and
#: 1.15e-14): the difference rule's error, not the pinned tolerance, sets them
ORACLE_FLOORS = {"det_oracle": 1e-9, "stokes": 1e-12}


def assert_oracle_floors(geometry, seed):
    """The default graphs suite run of ``geometry`` and ``seed``: det_oracle and stokes
    evaluated something and stay under their floors."""
    _, report = run(RunConfig(task="verify", geometry=geometry, suite="graphs", seed=seed,
                              report="floors.json"))
    checks = {c["name"]: c for c in report["checks"]}
    for name, floor in ORACLE_FLOORS.items():
        assert checks[name]["evaluated"] > 0, name
        assert checks[name]["value"] <= floor, f"{name} {checks[name]['value']:.3e}"


class TestOracleFloors:
    @pytest.mark.parametrize("geometry", ["flat", "sphere"])
    @pytest.mark.parametrize("seed", range(4))
    def test_default_graphs_suite(self, geometry, seed, tmp_path, monkeypatch):
        monkeypatch.setenv("NKLAB_OUTPUT_DIR", str(tmp_path))
        assert_oracle_floors(geometry, seed)


class TestArea:
    def test_unit_holomorphic_line(self, flat):
        grid = AnnulusGrid(1.0, 2.0, 16, 8)
        assert area(i_xi(flat), grid) == pytest.approx(6.0 * math.pi, rel=1e-12)

    def test_doubled_slope_doubles_density(self, flat):
        grid = AnnulusGrid(1.0, 2.0, 16, 8)
        section = polynomial_section(flat, {(1, 0): 2j})
        assert area(section, grid) == pytest.approx(12.0 * math.pi, rel=1e-12)

    def test_totally_null_section_has_zero_area(self, flat):
        grid = AnnulusGrid(1.0, 2.0, 8, 8)
        section = polynomial_section(flat, {})
        assert area(section, grid) == pytest.approx(0.0, abs=1e-14)

    def test_non_finite_node_is_named(self, flat):
        # F = i R^2 e^{i theta} for R < 1.5, undefined (nan) beyond
        psi = RadialFunction(lambda r: np.where(r < 1.5, r**4, np.nan), lambda r: 4.0 * r**3)
        section = i_r2(flat, (1.0, 2.0), psi)
        grid = AnnulusGrid(1.0, 2.0, 4, 8)
        bump = bump_basis(1.0, 2.0)[0]
        for compute in (lambda: area(section, grid), lambda: first_variation(section, bump, grid),
                        lambda: stokes_check(section, grid)):
            with pytest.raises(QuadratureError, match=r"R=1\.5\d*, theta=0\)"):
                compute()


class TestElResidual:
    def test_holomorphic_is_stationary(self, flat):
        for xi in (1.0 + 0.0j, 0.5 + 0.5j, -1.2 + 0.7j):
            assert abs(el_residual(i_xi(flat), xi)) <= 1e-9

    def test_torus_family_is_stationary(self):
        section = torus_section(TorusFamily(1.0, 0.0))
        for r in (0.3, 0.7, 1.5):
            assert abs(el_residual(section, r * np.exp(0.2j))) <= 1e-6

    def test_quadratic_profile_is_not_stationary(self, flat):
        # F = i R^2 e^{i theta}: the residual has modulus 1/(2 sqrt(2) R)
        section = i_r2(flat, (0.5, 1.5))
        res = el_residual(section, complex(1.0))
        assert abs(res) > 0.01
        assert abs(res) == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), rel=1e-6)

    def test_degenerate_point_raises(self):
        section = torus_section(TorusFamily(1.0, 0.0))
        with pytest.raises(SingularResidualError):
            el_residual(section, complex(1.0))

    @pytest.mark.parametrize("coeffs, xi, reason", [
        # i xi + xibar^2 / 2 on the unit circle: det_factor = 1 - |xi|^2 is zero
        ({(1, 0): 1j, (0, 2): 0.5}, complex(1.0), "degenerate"),
        # ... and changes sign between the stencil points just outside it
        ({(1, 0): 1j, (0, 2): 0.5}, complex(1.0 + 5e-7), "det_sign_change"),
        # xi^2 / 2: sigma = 0, lam = Im xi changes sign on a definite stencil
        ({(2, 0): 0.5}, complex(1.0, 5e-7), "lam_sign_change"),
    ])
    def test_skip_reason(self, flat, coeffs, xi, reason):
        with pytest.raises(SingularResidualError) as info:
            el_residual(polynomial_section(flat, coeffs), xi)
        assert info.value.reason == reason

    def test_sign_change_across_stencil_raises(self, flat):
        # F = i xi + xibar^2 / 2 has det_factor = 1 - |xi|^2, changing sign
        # on the unit circle; a stencil straddling it must refuse
        section = polynomial_section(flat, {(1, 0): 1j, (0, 2): 0.5})
        with pytest.raises(SingularResidualError):
            el_residual(section, complex(1.0 + 5e-7, 0.0))
        assert abs(el_residual(section, complex(0.5, 0.0))) < 1.0

    def test_lagrangian_nonholomorphic_has_nonzero_residual(self, sphere):
        rng = rng_from_seed(25)
        section = random_lagrangian_section(rng, sphere)
        grid = AnnulusGrid(0.6, 1.6, 8, 8)
        best = 0.0
        for r, t in zip(*(c.tolist() for c in grid._lattice())):
            xi = r * np.exp(1j * t)
            if abs(slopes(section, xi).sigma) < 1e-3:
                continue
            try:
                best = max(best, abs(el_residual(section, xi)))
            except SingularResidualError:
                continue
        assert best > 1e-3

    def test_conjugation_symmetry(self):
        geom = ConformalGeometry(
            "tilted",
            u=lambda z: 0.1 * z.real + 0.05 * z.imag**2,
            du=lambda z: 0.5 * (0.1 - 0.1j * z.imag),
        )
        section = polynomial_section(geom, {(1, 0): 1.5j, (2, 1): 0.1 + 0.05j})
        mirrored = conjugate_section(section)
        xi = 0.8 + 0.6j
        res = el_residual(section, xi.conjugate())
        res_m = el_residual(mirrored, xi)
        assert res_m == pytest.approx(res.conjugate(), rel=1e-6, abs=1e-9)

    def test_one_slopes_call_on_one_nine_point_stencil(self, flat, monkeypatch):
        import neutralkahler.graphs as graphs

        calls = []
        real_slopes = graphs.slopes
        monkeypatch.setattr(graphs, "slopes", lambda s, z: calls.append(z) or real_slopes(s, z))
        xi = 0.8 - 0.3j
        el_residual(i_xi(flat), xi)
        h = 1e-6
        assert len(calls) == 1 and np.shape(calls[0]) == (9,)
        assert set(calls[0].tolist()) == {xi + a * s for s in (h, 0.5 * h)
                                         for a in (0.0, 1.0, -1.0, 1j, -1j)}

    @pytest.mark.parametrize("case", ["sphere_family", "torus", "conjugate_polynomial"])
    def test_bit_identical_to_two_five_point_stencils(self, sphere, case):
        # at single points and on a lattice of more than one block
        lo, hi = 1.2, 2.4
        if case == "sphere_family":
            profile = stationary_family(sphere, FamilyParams(0.4, -0.3, 0.9, 1.4), -1, (0.3, 0.95))
            section, (lo, hi) = profile.section(), comfortable_range(profile)
        elif case == "torus":
            section = torus_section(TorusFamily(2.0, 1.0))
        else:
            section = conjugate_section(polynomial_section(sphere, {(1, 0): 1.5j, (2, 1): 0.1}))
        for xi in (lo * np.exp(0.4j), complex(hi * np.exp(2.9j)), 0.5 * (lo + hi) * np.exp(-1.1j)):
            assert el_residual(section, xi) == _two_step_residual(section, xi)
        lattice = np.linspace(lo, hi, 40)[:, None] * np.exp(1j * np.linspace(0.0, 6.2, 40))
        values, codes, _ = _residual_map(section, lattice)
        assert lattice.size > _RESIDUAL_BLOCK and values.shape == lattice.shape
        assert np.all(codes == 0)
        assert np.array_equal(values, _two_step_residual(section, lattice))

    @pytest.mark.parametrize("n", [12, 40])
    def test_stencil_centres_are_the_slopes(self, sphere, n):
        # the map's slopes are the centre row of each block's stencil, bit for
        # bit the slopes of the lattice itself, in one block and across blocks
        section = random_polynomial_section(rng_from_seed(31), sphere)
        lattice = np.linspace(0.4, 1.6, n)[:, None] * np.exp(1j * np.linspace(0.0, 6.2, n))
        assert (lattice.size > _RESIDUAL_BLOCK) == (n == 40)
        _, _, sl = _residual_map(section, lattice)
        ref = slopes(section, lattice)
        assert sl.sigma.shape == sl.rho.shape == lattice.shape
        for got, want in ((sl.sigma, ref.sigma), (sl.rho, ref.rho)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _select_codes_and_classes(section, xi):
    """The residual's skip codes and the classes at ``xi``, written with ``np.select``
    as before the nested ``np.where`` forms (the reference)."""
    h = 1e-6 * np.maximum(1.0, abs(xi))
    sl = slopes(section, xi + _STENCIL[:, None] * h)
    lam, det = sl.lam, sl.det_factor

    def mixed(v):
        neg = np.signbit(v)[_STEPS]
        return neg.any(axis=1) & ~neg.all(axis=1)

    code = np.select([sl.degenerate[_STEPS].any(axis=1), mixed(det), (det[0] > 0.0) & mixed(lam)],
                     [1, 2, 3])
    centre = SlopeData(sl.sigma[0], sl.rho[0])
    null = (abs(centre.sigma) < NULL_ATOL) & (abs(centre.lam) < NULL_ATOL)
    classes = np.select(
        [centre.degenerate & null, centre.degenerate, centre.det_factor > 0.0],
        [SurfaceClass.TOTALLY_NULL, SurfaceClass.DEGENERATE, SurfaceClass.RIEMANNIAN],
        SurfaceClass.LORENTZ,
    )
    return np.where(code[0] != 0, code[0], code[1]), classes


class TestSkipCodesAndClasses:
    """On ``F = i xi^2 / 2 + eps xibar`` (flat): ``lam = x``, ``sigma = -eps``, so points
    within a step of ``x = 0`` or of ``|x| = eps`` give every skip code and class, and
    at ``x = 9e-7``, ``eps = 2.5e-7`` both ``det`` and ``lam`` change sign (code 2)."""

    CASES = [(0.0, [0.0, 3e-7, 0.5]), (1e-8, [0.0, 1e-8, 3e-7, -3e-7, 5e-7]), (1.0, [1.0, 0.5]),
             (2.5e-7, [9e-7])]

    def test_same_as_select(self, flat):
        codes, classes = set(), set()
        for eps, xs in self.CASES:
            section = polynomial_section(flat, {(2, 0): 0.5j, (0, 1): eps})
            xi = np.array(xs) + 1j
            _, code, sl = _residual_map(section, xi)
            want_code, want_classes = _select_codes_and_classes(section, xi)
            assert np.array_equal(code, want_code)
            assert list(sl.classify()) == list(want_classes)
            for x, want in zip(xi, want_classes):  # one point gives a class, not an array
                assert slopes(section, x).classify() is want
            codes.update(code.tolist())
            classes.update(want_classes.tolist())
        assert codes == {0, 1, 2, 3} and classes == set(SurfaceClass)


def _two_step_residual(section, xi):
    """The residual from one 5-point stencil and one ``slopes`` call per step, with
    the Richardson step taken on each partial derivative of ``p`` and ``q`` before
    they are composed (the reference)."""
    five = np.array([0.0, 1.0, -1.0, 1j, -1j])
    h = 1e-6 * np.maximum(1.0, abs(xi))

    def quotients(step):
        z = xi + five.reshape((5,) + (1,) * np.ndim(xi)) * step
        sl = slopes(section, z)
        sigma, lam = np.broadcast_to(sl.sigma, z.shape), np.broadcast_to(sl.lam, z.shape)
        w = np.broadcast_to(section.geometry.conformal_factor(z), z.shape)
        root = np.sqrt(np.abs(lam * lam - (sigma.real * sigma.real + sigma.imag * sigma.imag)))
        p, q = lam / root, sigma * w / root
        partials = [(v[1] - v[2]) / (2.0 * step) for v in (p, q)]
        partials += [(v[3] - v[4]) / (2.0 * step) for v in (p, q)]
        return partials, w[0]

    (coarse, w0), (fine, _) = quotients(h), quotients(0.5 * h)
    px, qx, py, qy = ((4.0 * f - c) / 3.0 for c, f in zip(coarse, fine))
    d_p = 0.5 * (px - 1j * py)
    dbar_q = 0.5 * (qx + 1j * qy)
    return 1j * d_p - dbar_q / w0


#: variation-task configurations and the SHA-256 of their 10-bump sweeps, recorded
#: when the family and torus profiles took their derivatives from one rule
SWEEP_DIGESTS = [
    (dict(geometry="flat", a2=1.0, b2=0.5, grid=(32, 32)),
     "cc28a033a2ed325a4088fe79013e77b08d71bfa45a4516540bec360a69194abd"),
    (dict(geometry="sphere", b2=1.0, c2=5.0, rmin=0.3, rmax=0.9, grid=(64, 64)),
     "31649f66f2ee8c7bb181140c1d011c4550bc90b8287b4b6271618273b4b307d1"),
]


def _jet_counted(field, jets):
    """``field`` whose jet appends the points of each evaluation to ``jets``."""
    return ComplexField(field.evaluator, lambda xi: jets.append(xi) or field.jet(xi))


def _kernel_corpus():
    """The seeded corpus of the grid kernels, ``{name: (section, grid)}``: a flat and a
    sphere family on their comfortable ranges, a torus, a polynomial and a lagrangian
    section, and an off-family control."""
    flat, sphere = geometry_by_name("flat"), geometry_by_name("sphere")
    rng = rng_from_seed(31)
    corpus = {}
    for name in ("flat", "sphere"):
        ((_, profile),) = random_family_profiles(rng, name, 1)
        corpus[f"{name}-family"] = profile.section(), AnnulusGrid(*comfortable_range(profile),
                                                                  16, 16)
    corpus["torus"] = torus_section(TorusFamily(1.0, 3.0)), AnnulusGrid(1.25, 2.5, 16, 16)
    corpus["polynomial"] = (random_polynomial_section(rng, sphere, scale=0.3),
                            AnnulusGrid(0.6, 1.5, 32, 32))
    corpus["lagrangian"] = random_lagrangian_section(rng, flat), AnnulusGrid(0.6, 1.7, 24, 24)
    corpus["control"] = (off_family_profile(rng, flat, (0.5, 2.5)).section(),
                         AnnulusGrid(0.5, 2.5, 16, 16))
    return corpus


#: SHA-256 of the float.hex strings of each corpus case's kernel values (``area``,
#: ``first_variation`` along every bump of ``bump_basis``, the ``first_variations``
#: sweep, both sides of ``stokes_check``); the family, torus and control cases recorded
#: when their profiles took their derivatives from one rule, the others before the grid
#: carried its nodes
KERNEL_DIGESTS = {
    "flat-family":
        "37d5a3549ca83783094b4c1d6e0c9f4bc0dd087316ad4906309fe094a3d0a9cb",
    "sphere-family":
        "441d161dd318992dfa15df1330c3ff10572aa0d6ad9a71a326c90d126360e683",
    "torus":
        "ff0663a5507ef77e5f76db590c71a4a201d88d04d754e5737cf31d32b8daaf97",
    "polynomial":
        "b878bf15e5fc160f2f4608c1d4c0f485455d684cffd976bdbabf6205dc7a4fe2",
    "lagrangian":
        "efee4af92b7e14e72ca878d9dad3968d65793274224507084ffb0a54c2b57106",
    "control":
        "74207236be1530537b37e804239ca6274dab74811d71f2c66c9c15311ec74b87",
}


@pytest.mark.parametrize("name", KERNEL_DIGESTS)
def test_grid_kernels_are_pinned(name):
    section, grid = _kernel_corpus()[name]
    bumps = bump_basis(grid.r_min, grid.r_max)
    values = [area(section, grid), *(first_variation(section, b, grid) for b in bumps),
              *first_variations(section, bumps, grid).tolist(), *stokes_check(section, grid)]
    assert len(values) == 23 and all(math.isfinite(v) for v in values)
    digest = hashlib.sha256(" ".join(map(float.hex, values)).encode()).hexdigest()
    assert digest == KERNEL_DIGESTS[name]


class TestFirstVariation:
    def test_holomorphic_sections_stationary_under_bumps(self, flat):
        grid = AnnulusGrid(1.0, 2.0, 16, 16)
        section = polynomial_section(flat, {(1, 0): 1.7j, (2, 0): 0.05j})
        fvs = first_variations(section, bump_basis(1.0, 2.0), grid)
        assert fvs.shape == (10,)
        assert np.all(np.abs(fvs) <= 1e-5 * area(section, grid))

    def test_torus_family_stationary_under_bumps(self):
        section = torus_section(TorusFamily(1.0, 0.0))
        grid = AnnulusGrid(1.2, 3.0, 16, 16)
        fvs = first_variations(section, bump_basis(1.2, 3.0), grid)
        assert np.all(np.abs(fvs) <= 1e-5 * area(section, grid))

    def test_nonstationary_profile_detected(self, flat):
        # the residual of this profile carries an e^{-i theta} phase, so the
        # equivariant (k = 1) bumps are the ones that see it
        section = i_r2(flat, (0.5, 1.5))
        grid = AnnulusGrid(0.5, 1.5, 16, 16)
        fvs = np.abs(first_variations(section, bump_basis(0.5, 1.5), grid))
        assert fvs.max() > 1e-3 * area(section, grid)

    def test_linearity_in_bump(self, flat):
        grid = AnnulusGrid(1.0, 2.0, 12, 12)
        section = polynomial_section(flat, {(1, 0): 1.3j, (1, 1): 0.1})
        b1, b2 = bump_basis(1.0, 2.0, ks=(0, 1))[:2]
        combined = ComplexField(
            lambda xi: b1(xi) + b2(xi),
            lambda xi: tuple(u + v for u, v in zip(b1.jet(xi), b2.jet(xi))),
        )
        fv1, fv2, fv12 = first_variations(section, (b1, b2, combined), grid)
        scale = max(abs(fv1) + abs(fv2), 1e-9)
        assert abs(fv12 - fv1 - fv2) <= 1e-6 * scale

    def test_matches_area_of_shifted_sections(self, flat):
        # reference: the areas of the polynomial sections F + t b themselves
        grid = AnnulusGrid(0.8, 1.9, 12, 12)
        f = {(1, 0): 1.2j, (0, 2): 0.1, (2, 1): 0.05j}
        b = {(1, 0): 0.3 + 0.1j, (0, 2): 0.2j}

        def area_at(t):
            shifted = {k: f.get(k, 0.0) + t * b.get(k, 0.0) for k in f.keys() | b.keys()}
            return area(polynomial_section(flat, shifted), grid)

        h = 1e-5
        coarse = (area_at(h) - area_at(-h)) / (2.0 * h)
        fine = (area_at(0.5 * h) - area_at(-0.5 * h)) / h
        expect = (4.0 * fine - coarse) / 3.0
        got = first_variation(polynomial_section(flat, f), polynomial_section(flat, b).F, grid)
        assert abs(expect) > 1e-2
        assert got == pytest.approx(expect, rel=1e-8)

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_slopes_once_per_node_and_field(self, flat, n):
        # one jet of F and one per bump, each on the grid's one table of Gauss nodes
        jets = []
        grid = AnnulusGrid(1.0, 2.0, 6, 8)
        section = i_xi(flat)._replace(F=_jet_counted(i_xi(flat).F, jets))
        bumps = [_jet_counted(b, jets) for b in bump_basis(1.0, 2.0)[:n]]
        assert first_variations(section, bumps, grid).shape == (n,)
        nodes = grid.radial_nodes[:, None] * np.exp(1j * grid.theta_nodes)
        assert len(jets) == n + 1
        for xi in jets:
            assert xi is grid.xi_nodes
            assert np.allclose(xi, nodes, rtol=1e-15, atol=0.0)
        jets.clear()  # the one-bump case does the same work as a sweep of one
        first_variation(section, bumps[0], grid)
        assert len(jets) == 2

    def test_variation_task_builds_one_table_per_field(self, monkeypatch, tmp_path):
        # area and the 10-bump sweep: one jet of the section for its area, one for its
        # variations and one per bump (a table per bump and call was 21)
        import neutralkahler.graphs as graphs
        import neutralkahler.rotsym as rotsym

        monkeypatch.setenv("NKLAB_OUTPUT_DIR", str(tmp_path))
        jets = []
        real_field = graphs._angular_field
        for module in (graphs, rotsym):  # the family's section and the bumps
            monkeypatch.setattr(module, "_angular_field",
                                lambda *args: _jet_counted(real_field(*args), jets))
        code, report = run(RunConfig(task="variation", geometry="flat", a2=1.0, b2=0.5,
                                     grid=(8, 8), report="v.json"))
        assert code == 0 and report["checks"][0]["evaluated"] == 10
        assert len(jets) == 12

    def test_a_call_reads_the_geometry_once(self, sphere):
        # e^{2u} and du on the Gauss nodes once per call, not once per bump
        counts = {"u": 0, "du": 0}

        def counted(name):
            real = getattr(sphere, name)
            return lambda xi: counts.__setitem__(name, counts[name] + 1) or real(xi)

        geometry = sphere._replace(u=counted("u"), du=counted("du"))
        section = polynomial_section(geometry, {(1, 0): 1.2j, (2, 1): 0.1})
        grid = AnnulusGrid(0.5, 1.5, 6, 8)
        bumps = bump_basis(0.5, 1.5)
        for kernel in (lambda: first_variations(section, bumps, grid),
                       lambda: first_variation(section, bumps[3], grid),
                       lambda: area(section, grid)):
            kernel()
            assert counts == {"u": 1, "du": 1}
            counts.update(u=0, du=0)

    def test_a_grid_builds_its_node_table_once(self, flat, monkeypatch):
        import neutralkahler.numerics as numerics

        built = []
        real_polar = numerics._polar
        monkeypatch.setattr(numerics, "_polar", lambda r, t: built.append(1) or real_polar(r, t))
        grid = AnnulusGrid(1.0, 2.0, 6, 8)
        assert built == []  # not at construction
        section, bumps = polynomial_section(flat, {(1, 0): 1.3j, (1, 1): 0.1}), bump_basis(1.0, 2.0)
        area(section, grid)
        first_variations(section, bumps, grid)
        first_variation(section, bumps[0], grid)
        stokes_check(section, grid)
        assert len(built) == 1 and grid.xi_nodes is grid.xi_nodes
        assert not grid.xi_nodes.flags.writeable
        assert np.array_equal(grid.xi_nodes, real_polar(grid.radial_nodes[:, None],
                                                        grid.theta_nodes))

    @pytest.mark.parametrize("config, digest", SWEEP_DIGESTS, ids=("flat", "torus"))
    def test_sweep_values_are_pinned(self, config, digest):
        # the 10-bump sweeps of the variation task, bit for bit (SHA-256 of the
        # float.hex strings): a reordered summation in the sweep shows
        section, grid = _section_and_grid(RunConfig(task="variation", **config))
        values = first_variations(section, bump_basis(grid.r_min, grid.r_max), grid).tolist()
        assert hashlib.sha256(" ".join(map(float.hex, values)).encode()).hexdigest() == digest

    def test_bump_vanishes_at_support_ends(self):
        phi = radial_bump(1.0, 2.0)
        for r in (1.0, 2.0, 0.5, 2.5):
            assert phi(r) == (0.0, 0.0)
        assert phi(1.5) == (pytest.approx(1.0), 0.0)


class TestStokes:
    def test_holomorphic_line_annulus(self, flat):
        grid = AnnulusGrid(1.0, 2.0, 16, 16)
        interior, boundary = stokes_check(i_xi(flat), grid)
        assert interior == pytest.approx(12.0 * math.pi, rel=1e-8)
        assert abs(interior - boundary) <= 1e-6 * (1.0 + abs(interior))

    def test_torus_family(self):
        section = torus_section(TorusFamily(1.0, 0.0))
        grid = AnnulusGrid(0.5, 2.0, 24, 24)
        interior, boundary = stokes_check(section, grid)
        assert abs(interior - boundary) <= 1e-6 * (1.0 + abs(interior))

    def test_lagrangian_sections_have_vanishing_sides(self, flat, sphere):
        rng = rng_from_seed(26)
        for geom in (flat, sphere):
            section = random_lagrangian_section(rng, geom)
            grid = AnnulusGrid(0.7, 1.7, 24, 24)
            interior, boundary = stokes_check(section, grid)
            assert abs(interior) <= 1e-8
            assert abs(boundary) <= 1e-8


class TestCsvExport:
    def test_row_count_and_header(self, tmp_path, flat):
        grid = AnnulusGrid(1.0, 2.0, 6, 8)
        path = tmp_path / "classes.csv"
        rows = export_classification_csv(i_xi(flat), grid, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "R,theta,re_sigma,im_sigma,lambda,det_factor,abs_residual,class"
        assert rows == grid._lattice()[0].size
        assert len(lines) == rows + 1
        assert lines[1].endswith("riemannian")


def _annulus_points(lo, hi):
    """A 5 x 4 array of points on ``lo <= R <= hi``."""
    return np.linspace(lo, hi, 5)[:, None] * np.exp(1j * np.linspace(0.3, 6.0, 4))


def _contract_cases():
    flat, sphere = geometry_by_name("flat"), geometry_by_name("sphere")
    bumpy = random_radial_geometry(rng_from_seed(31))
    tilted = ConformalGeometry(
        "tilted",
        u=lambda z: 0.1 * z.real + 0.05 * z.imag**2,
        du=lambda z: 0.5 * (0.1 - 0.1j * z.imag),
    )
    rng = rng_from_seed(41)
    cases = [(random_polynomial_section(rng, g), (0.4, 1.8)) for g in (flat, sphere, bumpy)]
    cases += [
        (random_lagrangian_section(rng, sphere), (0.4, 1.8)),
        (random_holomorphic_section(rng, flat, (0.5, 2.0)), (0.5, 2.0)),
        (conjugate_section(polynomial_section(tilted, {(1, 0): 1.5j, (2, 1): 0.1})), (0.4, 1.8)),
        (torus_section(TorusFamily(1.0, 5.0)), (0.3, 2.5)),
    ]
    cases += [(GraphSection(b, sphere), (0.4, 1.6)) for b in bump_basis(0.6, 1.4)]
    H = RadialFunction(lambda r: 0.3 * r - 0.2 * r * r, lambda r: 0.3 - 0.4 * r, lambda r: -0.4)
    profiles = [
        stationary_family(sphere, FamilyParams(0.4, -0.3, 0.9, 1.4), -1, (0.3, 0.95)),
        stationary_family(bumpy, FamilyParams(0.3, -0.4, 1.1, 0.8), 1, (0.3, 3.5)),
        degenerate_family(flat, H, 2.0, 1, (0.4, 2.5)),
        degenerate_family(sphere, H, 1.5, 1, (0.15, 0.9)),
        off_family_profile(rng, sphere, (0.4, 1.6)),
    ]
    cases += [(p.section(), comfortable_range(p)) for p in profiles]
    return cases


class TestArrayContract:
    """Fields, slopes and geometries give the same values on a 2-D array of
    points as at each point alone, within 1e-13 of the largest value (numpy
    and Python scalars may round powers, moduli and exponentials
    differently in the last bit)."""

    @staticmethod
    def same(fn, xi):
        got = np.broadcast_to(fn(xi), xi.shape)
        want = np.array([fn(complex(z)) for z in xi.ravel()]).reshape(xi.shape)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("case", range(len(_contract_cases())))
    def test_field_and_slopes(self, case):
        section, (lo, hi) = _contract_cases()[case]
        xi = _annulus_points(lo, hi)
        jet = section.F.jet
        for fn in (section.F, lambda z: jet(z)[0], lambda z: jet(z)[1], lambda z: jet(z)[2],
                   lambda z: slopes(section, z).sigma, lambda z: slopes(section, z).rho):
            self.same(fn, xi)

    def test_geometries(self):
        xi = _annulus_points(0.2, 2.5)
        for geom in (geometry_by_name("flat"), geometry_by_name("sphere"),
                     random_radial_geometry(rng_from_seed(31))):
            for fn in (geom.u, geom.du, geom.conformal_factor):
                self.same(fn, xi)


class TestAmbientArrayContract:
    """The ambient layer and the pullback oracle on a 5 x 4 array of points
    give each point's own values. Frames and Theta are compared with Python
    scalar points, bit for bit on the flat geometry and otherwise within
    1e-13 of the largest value. The plane's FD partials divide
    by a step of about 1e-3, which magnifies last-bit differences between scalar
    and array evaluations of F to about 5e-13, so they and the determinant are
    compared bit for bit with one-point arrays (the same arithmetic)."""

    GEOMETRIES = ("flat", "sphere", "bumpy")

    @staticmethod
    def geometry(name):
        if name == "bumpy":
            return random_radial_geometry(rng_from_seed(31))
        return geometry_by_name(name)

    @staticmethod
    def points():
        rng = rng_from_seed(43)
        return _annulus_points(0.2, 2.5), rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))

    @pytest.mark.parametrize("name", GEOMETRIES)
    def test_frames_and_theta(self, name):
        geom = self.geometry(name)
        xi, eta = self.points()
        frame = ambient_frame(geom, TangentPoint(xi, eta))
        theta = theta_form(geom, TangentPoint(xi, eta)).components
        assert frame.G4.shape == frame.O4.shape == (5, 4, 4, 4)
        assert theta.shape == (5, 4, 4)
        rtol = 0.0 if name == "flat" else 1e-13  # e^{2u} = 1 leaves the same arithmetic
        for i, j in np.ndindex(xi.shape):
            p = TangentPoint(complex(xi[i, j]), complex(eta[i, j]))
            one = ambient_frame(geom, p)
            for got, want in ((frame.G4, one.G4), (frame.O4, one.O4),
                              (theta, theta_form(geom, p).components)):
                assert np.max(np.abs(got[i, j] - want)) <= rtol * np.max(np.abs(got))

    @pytest.mark.parametrize("name", GEOMETRIES)
    def test_jacobian_and_pullback_determinant(self, name):
        section = random_polynomial_section(rng_from_seed(44), self.geometry(name))
        xi, _ = self.points()
        jac = _jacobian(xi, *_plane_partials(section.F, xi))
        det = pullback_determinant(section, xi)
        assert jac.shape == (5, 4, 4, 2) and det.shape == (5, 4)
        for i, j in np.ndindex(xi.shape):
            one = xi[i, j:j + 1]
            assert np.array_equal(jac[i, j], _jacobian(one, *_plane_partials(section.F, one))[0])
            assert np.array_equal(det[i, j], pullback_determinant(section, one)[0])

    def test_stacks_are_read_only(self, sphere):
        xi, eta = self.points()
        p = TangentPoint(xi, eta)
        frame, theta = ambient_frame(sphere, p), theta_form(sphere, p)
        for stack in (frame.G4, frame.O4, theta.components):
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 1.0

    def test_one_point_gives_a_matrix_and_a_covector(self, sphere, flat):
        section = polynomial_section(flat, {(1, 0): 1j})
        for geom in (flat, sphere):
            p = TangentPoint(0.4 - 0.3j, 1.0 + 2.0j)
            assert ambient_frame(geom, p).G4.shape == ambient_frame(geom, p).O4.shape == (4, 4)
            assert theta_form(geom, p).components.shape == (4,)
        assert _jacobian(0.4 - 0.3j, *_plane_partials(section.F, 0.4 - 0.3j)).shape == (4, 2)
        assert isinstance(pullback_determinant(section, 0.4 - 0.3j), float)

    @pytest.mark.parametrize("coordinate, value", [(0, complex("nan")), (1, complex("inf"))])
    def test_tangent_point_rejects_any_non_finite_entry(self, coordinate, value):
        xi, eta = self.points()
        (xi, eta)[coordinate][3, 2] = value
        with pytest.raises(DomainError):
            TangentPoint(xi, eta)


class TestRandomHolomorphicSection:
    def test_criterion_4_draws_keep_one_lambda_sign(self):
        # the draws of acceptance criterion 4, on a lattice independent of the probes
        rng = rng_from_seed(104)
        for geometry, (lo, hi) in [("flat", (0.5, 2.0))] * 10 + [("sphere", (0.3, 0.9))] * 10:
            section = random_holomorphic_section(rng, geometry_by_name(geometry), (lo, hi))
            xi = np.linspace(lo, hi, 101)[:, None] * np.exp(
                1j * np.linspace(0.0, 2.0 * math.pi, 97, endpoint=False)
            )
            lam = slopes(section, xi).lam
            assert np.all(lam > 0.0) or np.all(lam < 0.0)


def _term_sums(coeffs):
    """``F``, ``d F`` and ``dbar F`` summed term by term with complex powers, as
    polynomial sections were evaluated before they became one coefficient
    matrix: the reference for the matrix evaluation."""
    terms = [(m, n, complex(c)) for (m, n), c in coeffs.items()]

    def ev(xi):
        xb = xi.conjugate()
        return sum((c * xi**m * xb**n for m, n, c in terms), 0j)

    def d(xi):
        xb = xi.conjugate()
        return sum((m * c * xi ** (m - 1) * xb**n for m, n, c in terms if m > 0), 0j)

    def dbar(xi):
        xb = xi.conjugate()
        return sum((n * c * xi**m * xb ** (n - 1) for m, n, c in terms if n > 0), 0j)

    return ev, d, dbar


def _gradient_coeffs(geometry, potential):
    """Coefficients of ``e^{-2u} dbar h`` built term by term in dicts, as
    ``lagrangian_section`` built them before: the reference for its matrix algebra."""
    if geometry == "flat":
        v = {(0, 0): 1.0}
    else:
        v = {(0, 0): 0.25, (1, 1): 0.5, (2, 2): 0.25}
    herm = {}
    for (m, n), c in potential.items():
        herm[(m, n)] = herm.get((m, n), 0.0) + 0.5 * c
        herm[(n, m)] = herm.get((n, m), 0.0) + 0.5 * c.conjugate()
    coeffs = {}
    for (m, n), c in herm.items():
        if n > 0:
            for (p, q), a in v.items():
                key = (m + p, n - 1 + q)
                coeffs[key] = coeffs.get(key, 0.0) + a * n * c
    return coeffs


def _random_coeffs(rng, kind):
    """Random coefficients shaped like those of ``sampling``'s sections."""
    def draw():
        return complex(*rng.normal(size=2))

    if kind == "polynomial":
        return {(m, n): draw() / (1.0 + m + n) for m in range(4) for n in range(4 - m)}
    if kind == "holomorphic":
        return {(k, 0): draw() for k in range(1, 5)}
    return {(m, n): draw() * 0.4 / (1.0 + m + n) for m in range(1, 4) for n in range(m + 1)}


class TestCoefficientMatrix:
    """Polynomial sections are one coefficient matrix evaluated by Horner's rule;
    ``F``, ``d F`` and ``dbar F`` agree with the term sums within 1e-13 of the
    largest value, at a point, on an ``el_residual`` stencil and on grid nodes."""

    @staticmethod
    def points():
        grid = AnnulusGrid(0.4, 1.8, 8, 16)
        return [0.7 - 0.4j, 0.9 + 0.3j + _STENCIL * 5e-4,
                _polar(grid.radial_nodes[:, None], grid.theta_nodes)]

    @pytest.mark.parametrize("geometry", ["flat", "sphere"])
    @pytest.mark.parametrize("kind", ["polynomial", "holomorphic", "lagrangian"])
    def test_matches_term_sums(self, geometry, kind):
        geom = geometry_by_name(geometry)
        rng = rng_from_seed(61)
        for _ in range(5):
            coeffs = _random_coeffs(rng, kind)
            if kind == "lagrangian":
                section = lagrangian_section(geom, coeffs)
                coeffs = _gradient_coeffs(geometry, coeffs)
            else:
                section = polynomial_section(geom, coeffs)
            F = section.F
            for xi in self.points():
                for got, want_fn in zip(F.jet(xi), _term_sums(coeffs)):
                    got = np.broadcast_to(got, np.shape(xi))
                    want = np.broadcast_to(want_fn(xi), np.shape(xi))
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_empty_coefficients_give_the_zero_field(self, flat, sphere):
        for section in (polynomial_section(flat, {}), lagrangian_section(sphere, {})):
            for xi in self.points():
                for value in (section.F(xi), *section.F.jet(xi)):
                    assert np.all(np.broadcast_to(value, np.shape(xi)) == 0.0)

    @pytest.mark.parametrize("key", [(-1, 0), (0, -2), (1.5, 0), (2, 1.0)])
    def test_exponents_must_be_non_negative_integers(self, flat, sphere, key):
        # a negative exponent would index the last row or column of the matrix
        with pytest.raises(DomainError, match="non-negative integers"):
            polynomial_section(flat, {(1, 0): 1j, key: 0.5})
        with pytest.raises(DomainError, match="non-negative integers"):
            lagrangian_section(sphere, {(1, 1): 1.0, key: 0.5})

    def test_numpy_integer_exponents(self, flat):
        xi = 0.3 - 1.2j
        plain = polynomial_section(flat, {(2, 1): 0.5j})
        numpy_keys = polynomial_section(flat, {(np.int64(2), np.int64(1)): 0.5j})
        assert numpy_keys.F(xi) == plain.F(xi)


def _separate_closures(g, dg, k):
    """``g(R) e^{i k theta}`` as the three closures every angular field was before it
    had one jet: value, ``d`` and ``dbar``, each evaluating ``R`` and the profile."""

    def ev(xi):
        r = abs(xi)
        return g(r) * xi**k / r**k

    def d(xi):
        r = abs(xi)
        return 0.5 * (xi / r) ** (k - 1) * (dg(r) + k * g(r) / r)

    def dbar(xi):
        r = abs(xi)
        return 0.5 * (xi / r) ** (k + 1) * (dg(r) - k * g(r) / r)

    return ev, d, dbar


def _profile_closures(profile):
    """The reference closures of a ``RotSymProfile`` section, ``G`` and ``G'`` each
    taking its own ``W = sqrt(Psi)``."""
    def W(r):
        return np.sqrt(np.maximum(profile.psi(r), 0.0))

    def G(r):
        return profile.H(r) + 1j * (profile.branch * W(r))

    def dG(r):
        return profile.H.df(r) + 1j * (profile.branch * profile.psi.df(r) / (2.0 * W(r)))

    return _separate_closures(G, dG, 1)


def _bump_closures(r_lo, r_hi, c, k):
    """The reference closures of a ``bump_basis`` field, ``phi`` and ``phi'`` each
    clipping its own ``s``."""
    width = r_hi - r_lo

    def phi(r):
        s = np.clip((r - r_lo) / width, 0.0, 1.0)
        return c * (4.0 * s * (1.0 - s)) ** 3

    def dphi(r):
        s = np.clip((r - r_lo) / width, 0.0, 1.0)
        return c * (192.0 * (s * (1.0 - s)) ** 2 * (1.0 - 2.0 * s) / width)

    return _separate_closures(phi, dphi, k)


def _jet_cases():
    """``(name, field, reference closures, radial range)`` of every jet the package builds."""
    from neutralkahler.graphs import _coefficient_matrix, _evaluator, _wirtinger
    from neutralkahler.lines3d import torus_profile

    flat, sphere = geometry_by_name("flat"), geometry_by_name("sphere")
    H = RadialFunction(lambda r: 0.3 * r - 0.2 * r * r, lambda r: 0.3 - 0.4 * r, lambda r: -0.4)
    profiles = {
        "flat family": stationary_family(flat, FamilyParams(0.2, 0.1, 1.0, 0.4), 1, (0.5, 2.5)),
        "sphere family": stationary_family(sphere, FamilyParams(0.4, -0.3, 0.9, 1.4), -1,
                                           (0.3, 0.95)),
        "torus": torus_profile(TorusFamily(2.0, 1.0, branch=-1)),
        "degenerate family": degenerate_family(sphere, H, 1.5, 1, (0.15, 0.9)),
        "off-family control": off_family_profile(rng_from_seed(43), sphere, (0.4, 1.6)),
    }
    cases = [(name, p.section().F, _profile_closures(p),
              (1.2, 2.4) if name == "torus" else comfortable_range(p))
             for name, p in profiles.items()]
    ks = (0, 1, -1, 2, -2)
    kcs = [(k, c) for k in ks for c in (1.0, 1.0j)]  # the order of bump_basis
    cases += [(f"bump k={k} c={c}", bump, _bump_closures(0.6, 1.4, c, k), (0.5, 1.5))
              for bump, (k, c) in zip(bump_basis(0.6, 1.4, ks), kcs)]
    coeffs = {(1, 0): 1.5j, (2, 1): 0.1 - 0.2j, (0, 3): 0.05}
    C = _coefficient_matrix(coeffs)
    polynomial = (_evaluator(C), _evaluator(_wirtinger(C, 0)), _evaluator(_wirtinger(C, 1)))
    cases.append(("polynomial", polynomial_section(sphere, coeffs).F, polynomial, (0.3, 1.8)))
    for name, field, reference, r_range in cases[:3] + cases[-1:]:
        mirrored = tuple(lambda xi, f=f: f(xi.conjugate()).conjugate() for f in reference)
        cases.append((f"conjugate {name}", conjugate_section(GraphSection(field, sphere)).F,
                      mirrored, r_range))
    return cases


class TestJet:
    """Every closed-form jet equals, bit for bit, the value and the two derivatives
    computed separately as before, at a point, on a 9-point stencil and on a 2-D array
    of Gauss nodes; lagrangian sections are checked against their term sums in
    ``TestCoefficientMatrix``."""

    @staticmethod
    def points(lo, hi):
        mid = 0.5 * (lo + hi) * np.exp(0.7j)
        grid = AnnulusGrid(lo, hi, 4, 8)
        return [complex(mid), mid + _STENCIL * 1e-3,
                _polar(grid.radial_nodes[:, None], grid.theta_nodes)]

    @pytest.mark.parametrize("case", range(len(_jet_cases())))
    def test_jet_is_the_separate_formulas(self, case):
        name, field, reference, (lo, hi) = _jet_cases()[case]
        for xi in self.points(lo, hi):
            jet = field.jet(xi)
            assert np.array_equal(field(xi), jet[0]), name
            for got, want_fn in zip(jet, reference):
                want = want_fn(xi)
                assert np.shape(got) == np.shape(want), name
                assert np.array_equal(got, want), name

    def test_one_slopes_call_evaluates_each_profile_once(self, sphere):
        import collections
        import dataclasses

        profile = stationary_family(sphere, FamilyParams(0.4, -0.3, 0.9, 1.4), -1, (0.3, 0.95))
        calls = collections.Counter()

        def counted(name, fn):
            def wrapped(r):
                calls[name] += 1
                return fn(r)
            return wrapped

        H = RadialFunction(counted("H", profile.H.f), counted("H'", profile.H.df), profile.H.d2f)
        psi = RadialFunction(counted("Psi", profile.psi.f), counted("Psi'", profile.psi.df),
                             profile.psi.d2f)
        section = dataclasses.replace(profile, H=H, psi=psi).section()
        for xi in self.points(*comfortable_range(profile)):
            calls.clear()
            slopes(section, xi)
            assert calls == {"H": 1, "H'": 1, "Psi": 1, "Psi'": 1}
