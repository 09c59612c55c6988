"""Planted defects: each paired check must fail when one side of its pair is wrong.

Every test patches one plausible defect into the code under test (never into
the check), runs the verify suite that owns the check at its pinned
``cli.DEFAULT_TOLERANCES`` value (or the acceptance criterion that owns it, at
its pinned bound) and asserts that the check fails.
"""

import inspect
import json
import sys

import numpy as np
import pytest

import test_acceptance
import test_cli
import test_elementwise
import test_graphs
import test_numerics
import test_rotsym
from neutralkahler import ambient, cli, graphs, lines3d, numerics, rotsym
from neutralkahler.ambient import AmbientFrame, ThetaForm, ambient_frame, theta_form
from neutralkahler.cli import DEFAULT_TOLERANCES, RunConfig, run
from neutralkahler.numerics import CumulativeIntegral


@pytest.fixture(autouse=True)
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("NKLAB_OUTPUT_DIR", str(tmp_path))


def verify(geometry, suite):
    """The checks of one seeded suite run, by name, all at the pinned tolerances."""
    _, report = run(RunConfig(task="verify", geometry=geometry, suite=suite, samples=100,
                              seed=0, report="planted.json"))
    checks = {c["name"]: c for c in report["checks"]}
    for name, check in checks.items():
        assert check["tolerance"] == DEFAULT_TOLERANCES.get(name, 0.0)
    return checks


def plant_frame_defect(monkeypatch, defect):
    """Wrap ``ambient_frame`` where ``graphs`` and ``cli`` import it."""

    def wrapped(geom, p):
        frame = ambient_frame(geom, p)
        G4, O4 = frame.G4.copy(), frame.O4.copy()
        defect(G4, O4)
        return AmbientFrame(G4, O4)

    monkeypatch.setattr(graphs, "ambient_frame", wrapped)
    monkeypatch.setattr(cli, "ambient_frame", wrapped)


def plant_source_defect(monkeypatch, module, name, old, new=""):
    """Recompile ``module.name`` with the one occurrence of ``old`` in its source
    replaced by ``new``, and patch it in for the test: in ``module`` and in every
    package module that imported it (test modules keep their own bindings)."""
    real = getattr(module, name)
    source = inspect.getsource(real)
    assert source.count(old) == 1, old
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    for importer in list(sys.modules.values()):
        if (getattr(importer, "__name__", "").partition(".")[0] == "neutralkahler"
                and vars(importer).get(name) is real):
            monkeypatch.setattr(importer, name, namespace[name])


def failed(checks, *names):
    return [name for name in names if not checks[name]["passed"]]


@pytest.mark.parametrize("geometry", ["flat", "sphere"])
def test_clean_checks_pass(geometry):
    checks = {**verify(geometry, "ambient"), **verify(geometry, "graphs"),
              **verify(geometry, "rotsym")}
    assert all(c["passed"] for c in checks.values()), checks


def test_scaled_m_entries_of_omega(monkeypatch):
    # the sphere, because m = -4 Im(eta dw) vanishes on the flat geometry
    def scale_m(G4, O4):
        O4[..., 0, 1] *= 1.0 + 1e-3
        O4[..., 1, 0] *= 1.0 + 1e-3

    plant_frame_defect(monkeypatch, scale_m)
    assert failed(verify("sphere", "graphs"), "stokes") == ["stokes"]
    # Omega's m entries vary along the base, so d(Omega) and d(Theta) - Omega break too
    checks = verify("sphere", "ambient")
    assert failed(checks, "compatibility", "closedness", "exactness") == [
        "compatibility", "closedness", "exactness"]


@pytest.mark.parametrize("geometry", ["flat", "sphere"])
def test_theta_y_component_scaled(monkeypatch, geometry):
    # d(Theta) = Omega breaks; Omega is untouched, so d(Omega) = 0 still holds
    def scaled(geom, p):
        components = theta_form(geom, p).components.copy()
        components[..., 1] *= 1.0 + 1e-3
        return ThetaForm(components)

    monkeypatch.setattr(cli, "theta_form", scaled)
    checks = verify(geometry, "ambient")
    assert failed(checks, *checks) == ["exactness"]


def test_one_nan_theta_in_one_stencil(monkeypatch):
    # Theta at one shifted point of the last stencil is NaN: exactness must keep
    # that NaN and locate the stencil's centre
    centres = []

    def nan_in_last_stencil(geom, p):
        components = theta_form(geom, p).components.copy()
        components[-1, -1, 0] = np.nan
        centres.append(p.xi[-1, 0])
        return ThetaForm(components)

    monkeypatch.setattr(cli, "theta_form", nan_in_last_stencil)
    checks = verify("sphere", "ambient")
    assert failed(checks, *checks) == ["exactness"]
    assert np.isnan(checks["exactness"]["value"])
    assert checks["exactness"]["worst_at"]["xi"] == [centres[0].real, centres[0].imag]


def test_pullback_factor_off_by_one(monkeypatch):
    monkeypatch.setattr(graphs, "PULLBACK_DET_FACTOR", graphs.PULLBACK_DET_FACTOR + 1.0)
    checks = verify("sphere", "graphs")
    assert failed(checks, "det_oracle") == ["det_oracle"]
    assert checks["det_oracle"]["evaluated"] > 0


@pytest.mark.parametrize("geometry", ["flat", "sphere"])
def test_symmetric_metric_pair_flipped(monkeypatch, geometry):
    # the blocks [[m, -2w], [-2w, 0]] stay indefinite, so signature_defects
    # cannot see this defect; the calibration and compatibility checks do
    def flip(G4, O4):
        G4[..., 1, 2] *= -1.0
        G4[..., 2, 1] *= -1.0

    plant_frame_defect(monkeypatch, flip)
    checks = verify(geometry, "ambient")
    assert failed(checks, "calibration_floor", "compatibility", "signature_defects") == [
        "calibration_floor", "compatibility"]


def test_metric_diagonal_filled_with_m(monkeypatch):
    # m written on the whole diagonal, not only the base slots: the blocks
    # [[m, +-2w], [+-2w, m]] turn definite where |m| > 2w, which the sphere's
    # draws reach (on the flat geometry m = 0 and the metric is unchanged)
    def fill_diagonal(G4, O4):
        G4[..., 2, 2] = G4[..., 3, 3] = G4[..., 0, 0]

    plant_frame_defect(monkeypatch, fill_diagonal)
    checks = verify("sphere", "ambient")
    assert failed(checks, "signature_defects", "closedness", "exactness") == ["signature_defects"]
    assert checks["signature_defects"]["value"] > 0


@pytest.mark.parametrize("geometry", ["flat", "sphere"])
def test_source_integrand_doubled(monkeypatch, geometry):
    # the factor 2 of (R H' - H)^2 e^{2u} / (2 R (1 + R u')) dropped
    source = rotsym._source_J

    def doubled(geom, H):
        J = source(geom, H)
        return lambda r: 2.0 * J(r)

    monkeypatch.setattr(rotsym, "_source_J", doubled)
    checks = verify(geometry, "rotsym")
    assert failed(checks, "ode_residual", "psi_quadrature") == ["psi_quadrature"]
    assert checks["psi_quadrature"]["evaluated"] > 0


@pytest.mark.parametrize("geometry, name", [("sphere", "q1"), ("flat", "p1")])
def test_ode_coefficient_scaled(monkeypatch, geometry, name):
    # q1 vanishes identically on the flat geometry, so there p1 carries the defect
    coefficients = rotsym.ode_coefficients

    def scaled(*args):
        co = coefficients(*args)
        return co._replace(**{name: getattr(co, name) * (1.0 + 1e-3)})

    monkeypatch.setattr(rotsym, "ode_coefficients", scaled)
    checks = verify(geometry, "rotsym")
    assert failed(checks, "ode_residual", "psi_quadrature") == ["ode_residual"]
    assert checks["ode_residual"]["evaluated"] > 0


@pytest.mark.parametrize("geometry", ["flat", "sphere"])
def test_cumulative_weight_perturbed(monkeypatch, geometry):
    # one Gauss weight of every cell sum off by 1e-3 relative
    weights = CumulativeIntegral._WEIGHTS * np.r_[1.0 + 1e-3, np.ones(7)]
    monkeypatch.setattr(CumulativeIntegral, "_WEIGHTS", weights)
    checks = verify(geometry, "rotsym")
    assert failed(checks, "ode_residual", "psi_quadrature") == ["psi_quadrature"]


@pytest.mark.parametrize("geometry", ["flat", "sphere"])
def test_annulus_weight_perturbed(monkeypatch, geometry):
    # one Gauss weight of every radial cell off by 1e-3 relative: the interior
    # side of Stokes sums over the annulus, its boundary side uses the angular
    # trapezoid rule only, so the two sides part
    nodes, weights = numerics.GAUSS_LEGENDRE_4
    monkeypatch.setattr(numerics, "GAUSS_LEGENDRE_4",
                        (nodes, weights * np.r_[1.0 + 1e-3, np.ones(3)]))
    checks = verify(geometry, "graphs")
    assert failed(checks, *checks) == ["stokes"]
    assert checks["stokes"]["evaluated"] > 0


def test_singular_metric_counts_as_signature_defect(monkeypatch, tmp_path):
    # G4's w entries zeroed: the metric diag(m, m, 0, 0) is singular, so it has
    # no signature; the suite still writes its report and the check fails
    def zero_w(G4, O4):
        G4[..., 1, 2] = G4[..., 2, 1] = G4[..., 0, 3] = G4[..., 3, 0] = 0.0

    plant_frame_defect(monkeypatch, zero_w)
    assert cli.main(["verify", "--geometry", "sphere", "--suite", "ambient", "--samples", "100",
                     "--seed", "0", "--report", "singular.json"]) == 1
    checks = {c["name"]: c for c in json.loads((tmp_path / "singular.json").read_text())["checks"]}
    assert not checks["signature_defects"]["passed"]
    assert checks["signature_defects"]["value"] == 100


@pytest.mark.parametrize("geometry", ["flat", "sphere"])
def test_one_nan_frame_entry(monkeypatch, geometry):
    # G4[0, 0] of the last point of every stack is NaN: the worst value of each
    # sweep must keep that NaN, not drop it as Python's min and max would
    def nan_at_last_point(G4, O4):
        G4[(-1,) * (G4.ndim - 2) + (0, 0)] = np.nan

    plant_frame_defect(monkeypatch, nan_at_last_point)
    checks = verify(geometry, "ambient")
    assert failed(checks, *checks) == [
        "calibration_floor", "jplane_gap", "signature_defects", "compatibility"]
    assert np.isnan(checks["calibration_floor"]["value"])
    assert checks["signature_defects"]["value"] == 1


def test_one_nan_pullback_determinant(monkeypatch):
    # the last determinant of every pullback_determinant call is NaN: det_oracle
    # must keep it, not drop it as Python's max would
    def nan_at_last_point(section, xi):
        det = graphs.pullback_determinant(section, xi)
        det[-1:] = np.nan
        return det

    monkeypatch.setattr(cli, "pullback_determinant", nan_at_last_point)
    checks = verify("flat", "graphs")
    assert failed(checks, "det_oracle", "stokes") == ["det_oracle"]
    assert np.isnan(checks["det_oracle"]["value"])


def test_one_nan_stokes_interior(monkeypatch):
    # the interior integral of the second Stokes pair only is NaN
    calls = []

    def nan_second_interior(section, grid):
        interior, boundary = graphs.stokes_check(section, grid)
        calls.append(grid)
        return (np.nan if len(calls) == 2 else interior), boundary

    monkeypatch.setattr(cli, "stokes_check", nan_second_interior)
    checks = verify("sphere", "graphs")
    assert failed(checks, "det_oracle", "stokes") == ["stokes"]
    assert np.isnan(checks["stokes"]["value"])
    assert checks["stokes"]["evaluated"] == len(calls) > 2


def test_rho_without_conformal_term(monkeypatch):
    # rho = d F + 2 F du with the 2 F du term dropped, in the one slope formula that
    # slopes and the quadratures share; du = 0 on the flat geometry
    plant_source_defect(monkeypatch, graphs, "_jet_slopes", " + 2.0 * f * du")
    checks = verify("sphere", "graphs")
    assert failed(checks, "det_oracle", "stokes") == ["det_oracle"]
    assert checks["det_oracle"]["evaluated"] > 0


def test_residual_without_conformal_factor(monkeypatch):
    # the e^{-2u} = 1 / w[0] factor of the dbar term dropped (w = 1 on the flat
    # geometry); the area side of the pair is untouched, so first_variation_rel passes
    plant_source_defect(monkeypatch, graphs, "_residual_block", "dbar_q / w[0]", "dbar_q")
    checks = verify("sphere", "families")
    assert failed(checks, "residual_max", "first_variation_rel") == ["residual_max"]
    assert checks["residual_max"]["evaluated"] > 0


def test_area_without_conformal_factor(monkeypatch):
    # the e^{2u} factor of the area density dropped: the families stop being
    # stationary for the functional the bumps vary, while the residual is untouched
    plant_source_defect(monkeypatch, graphs, "_area_from_slopes", " * w, grid)", ", grid)")
    checks = verify("sphere", "families")
    assert failed(checks, "residual_max", "first_variation_rel") == ["first_variation_rel"]


def test_degenerate_family_without_source_term(monkeypatch):
    # Psi' = 2 a2 R - 2 u' e^{-2u} (b2 + I) + e^{-2u} J with its last term dropped:
    # Psi's values are untouched, so psi_quadrature cannot see it, but the slope
    # determinant of the degenerate families no longer cancels (criterion 7)
    plant_source_defect(monkeypatch, rotsym, "psi_closed_form", " + v(r) * J(r)")
    with pytest.raises(AssertionError, match="degenerate defect"):
        test_acceptance.test_criterion_7_degenerate_families()


def test_psi_second_derivative_source_sign_flipped(monkeypatch):
    # Psi'' with +4 u' e^{-2u} J for -4 u' e^{-2u} J: Psi and Psi' are untouched, so
    # psi_quadrature and the degenerate families cannot see it, and u' = 0 hides it
    # on the flat geometry; the sphere's Psi'' leaves the first ODE
    plant_source_defect(monkeypatch, rotsym, "psi_closed_form", "- 4.0 * ud * v(r) * jv",
                        "+ 4.0 * ud * v(r) * jv")
    monkeypatch.setattr(test_rotsym, "psi_closed_form", rotsym.psi_closed_form)
    test_rotsym.TestPsiClosedForm().test_second_derivative_solves_the_first_ode("flat")
    with pytest.raises(AssertionError):
        test_rotsym.TestPsiClosedForm().test_second_derivative_solves_the_first_ode("sphere")


def test_radial_rule_with_m_over_r_squared_sign_flipped(monkeypatch, request):
    # t'' = (k^2 + m / R^2 - 2 n u'') t for (k^2 - m / R^2 - 2 n u'') t in the one rule
    # of the closed profiles: only the ODE residuals read H'' and psi'' (the sections'
    # jets stop at the first derivative, psi_quadrature compares values), so of the
    # suites only ode_residual fails. No suite runs a torus, but its quartic carries
    # m = 2 and 4, and the difference-rule test sees its psi''; so does the torus oracle,
    # where the quartic's psi'' leaves the family's (worst 26 of max(1, |x|)), and at
    # C2 = 2 B2 also the quadrature path's
    plant_source_defect(monkeypatch, rotsym, "_radial_sum", " - m * inv * inv",
                        " + m * inv * inv")
    monkeypatch.setattr(test_rotsym, "_radial_sum", rotsym._radial_sum)
    for geometry in ("flat", "sphere"):
        checks = verify(geometry, "all")
        assert failed(checks, *checks) == ["ode_residual"]
    with pytest.raises(AssertionError):
        test_rotsym.TestStationaryFamily().test_analytic_derivatives_match_fd("torus", request)
    oracle, sphere = test_rotsym.TestTorusIsAFamilyMember(), request.getfixturevalue("sphere")
    for test in (oracle.test_quartic_is_the_family_psi,
                 oracle.test_symmetric_member_is_the_degenerate_family):
        with pytest.raises(AssertionError):
            test(sphere)


def test_radial_rule_without_the_u_second_derivative(monkeypatch, request):
    # t'' without its -2 n u'' t term: u'' = 0 on the flat geometry, so flat cannot see
    # it; the sphere's H'' and psi'' leave the ODE pair, and on the bump, where u'' is not
    # fixed by u', the difference-rule test sees them too. The torus oracle's family psi''
    # carries the e^{-2u} term and the quartic does not (worst 7.5 of max(1, |x|))
    plant_source_defect(monkeypatch, rotsym, "_radial_sum", " - n2 * udd")
    monkeypatch.setattr(test_rotsym, "_radial_sum", rotsym._radial_sum)
    checks = verify("flat", "all")
    assert failed(checks, *checks) == []
    checks = verify("sphere", "all")
    assert failed(checks, *checks) == ["ode_residual"]
    with pytest.raises(AssertionError):
        test_rotsym.TestStationaryFamily().test_analytic_derivatives_match_fd("bump", request)
    with pytest.raises(AssertionError):
        test_rotsym.TestTorusIsAFamilyMember().test_quartic_is_the_family_psi(
            request.getfixturevalue("sphere"))


@pytest.mark.parametrize("geometry", ["flat", "sphere"])
def test_dbar_exponent_off_by_one(monkeypatch, geometry):
    # dbar of a coefficient matrix takes (n + 1) C, not n C; F itself is untouched,
    # so its FD Jacobian and the boundary side of Stokes are too. The interior reads
    # the jet, but Omega pulls back to 2i Im d(F e^{2u}) dxi ^ dxibar, free of dbar F
    plant_source_defect(monkeypatch, graphs, "_wirtinger", "(m, n)[axis]", "(m, n + 1)[axis]")
    checks = verify(geometry, "graphs")
    assert failed(checks, *checks) == ["det_oracle"]
    assert checks["det_oracle"]["evaluated"] > 0


@pytest.mark.parametrize("geometry", ["flat", "sphere"])
def test_d_exponent_off_by_one(monkeypatch, geometry):
    # d of a coefficient matrix takes (m + 1) C, not m C; F is untouched, so the FD
    # Jacobian and the boundary side of Stokes are too, while the interior reads the jet
    plant_source_defect(monkeypatch, graphs, "_wirtinger", "(m, n)[axis]", "(m + 1, n)[axis]")
    checks = verify(geometry, "graphs")
    assert failed(checks, *checks) == ["det_oracle", "stokes"]
    assert checks["stokes"]["value"] > 1e-3


def test_jet_scaled_by_one_part_in_1e8(monkeypatch):
    # F, dF and dbarF scaled by 1 + 1e-8 inside the slope formula (slopes and the
    # quadratures): every slope determinant moves by 2e-8 relative, which the pinned
    # det_oracle tolerance (1e-6) cannot see; the floor that the fourth-order pullback
    # affords (1e-9) does
    plant_source_defect(monkeypatch, graphs, "_jet_slopes", "f, d, dbar = jet",
                        "f, d, dbar = (v * (1.0 + 1e-8) for v in jet)")
    assert failed(verify("sphere", "graphs"), "det_oracle", "stokes") == []
    with pytest.raises(AssertionError, match="det_oracle"):
        test_graphs.assert_oracle_floors("sphere", 0)


def test_richardson_weight_perturbed(monkeypatch, request):
    # one weight of the difference rule 4 -> 4.01: every derivative it takes grows by
    # 1/300 of itself, which the pullback's Jacobian and d(Theta) show, and so do the
    # tests that hold the radial closed forms against the rule. The residual and the
    # first variation vanish on stationary sections under any rescaling of their
    # derivatives, and Stokes differences nothing, so they cannot
    plant_source_defect(monkeypatch, numerics, "_richardson", "4.0 * (fine / h)",
                        "4.01 * (fine / h)")
    for geometry in ("flat", "sphere"):
        checks = verify(geometry, "all")
        assert failed(checks, *checks) == ["exactness", "det_oracle"]
    with pytest.raises(AssertionError):
        test_numerics.TestWirtinger().test_fd_error_scales_quartically(monkeypatch)
    with pytest.raises(AssertionError):
        test_rotsym.TestStationaryFamily().test_analytic_derivatives_match_fd("sphere", request)


def test_potential_not_symmetrised(monkeypatch):
    # (H + H^H) / 2 without its H^H term: h is no longer real, so the gradient
    # sections stop being lagrangian and their Stokes sides stop vanishing
    plant_source_defect(monkeypatch, graphs, "lagrangian_section", " + H.conj().T")
    with pytest.raises(AssertionError, match="lagrangian sides"):
        test_acceptance.test_criterion_9_exactness_stokes()


def test_angular_jet_dbar_sign_flipped(monkeypatch):
    # dbar of g(R) e^{i k theta} with +k g/R in place of -k g/R, in the one jet that
    # every family section, torus and variation bump shares; F and d are untouched.
    # The graphs suite draws polynomial sections only, so it cannot see it
    plant_source_defect(monkeypatch, graphs, "_angular_field", "(dg - kg)", "(dg + kg)")
    assert failed(verify("flat", "graphs"), "det_oracle", "stokes") == []
    checks = verify("flat", "families")
    assert failed(checks, "residual_max", "first_variation_rel") == ["residual_max"]
    checks = verify("sphere", "families")
    assert failed(checks, "residual_max", "first_variation_rel") == ["residual_max",
                                                                      "first_variation_rel"]


def test_sweep_pairs_every_bump_with_the_first(monkeypatch):
    # every bump of a first_variations sweep varied along the first bump's slope table
    # (the radial k = 0 one). The stationary families vary by zero along every bump,
    # so the families suite's check cannot see it; an off-family G(R) e^{i theta}
    # moves only along the k = 1 bumps, so criterion 5's off-family detection catches
    # it, and so do the pinned families reports and both pinned sweeps (the flat
    # sweep's pinned values are roundoff, up to 9.5e-10, where the defect's are zero)
    plant_source_defect(monkeypatch, graphs, "first_variations",
                        "variation(bump) for", "variation(bumps[0]) for")
    for module in (test_acceptance, test_graphs):
        monkeypatch.setattr(module, "first_variations", graphs.first_variations)
    for geometry in ("flat", "sphere"):
        checks = verify(geometry, "families")
        assert failed(checks, "residual_max", "first_variation_rel") == []
    with pytest.raises(AssertionError, match="off-family section"):
        test_acceptance.test_criterion_5_stationary_families()
    for geometry, seed in test_cli.FAMILIES_DIGESTS:
        with pytest.raises(AssertionError):
            test_cli.test_families_suite_is_pinned(geometry, seed)
    for config, digest in test_graphs.SWEEP_DIGESTS:
        with pytest.raises(AssertionError):
            test_graphs.TestFirstVariation().test_sweep_values_are_pinned(config, digest)


def test_congruence_csv_drops_its_last_row(monkeypatch, tmp_path):
    # the export's CSV without the last node's row: export_segments holds the rows the
    # file holds against the lattice, so it fails where a count of the lattice itself,
    # compared with the lattice, could not
    plant_source_defect(monkeypatch, lines3d, "export_congruence", "(rs, ts, *d.T, *f.T)",
                        "(rs[:-1], ts, *d.T, *f.T)")
    assert cli.main(["export", "--B2", "1", "--C2", "0", "--grid", "8x8", "--format", "csv",
                     "--out", "t.csv", "--report", "planted.json"]) == 1
    report = json.loads((tmp_path / "planted.json").read_text())
    assert failed({c["name"]: c for c in report["checks"]}, "export_segments") == [
        "export_segments"]
    assert report["values"]["segments"] == 63
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 1 + 63


def test_frame_takes_the_stacks_first_conformal_factor(monkeypatch, request):
    # every point of a stacked ambient_frame call takes the first point's e^{2u}; one
    # point is untouched. The flat factor is constant, so flat cannot see it. On the
    # sphere the stencils that difference a stacked Omega or Theta (closedness,
    # exactness), the pullback's frames (det_oracle) and Stokes fail; calibration_floor,
    # jplane_gap, signature_defects and compatibility (one consistent frame at each
    # point), and the rotsym and families checks (which read no frame) miss it
    plant_source_defect(monkeypatch, ambient, "ambient_frame",
                        "two_w = 2.0 * geom.conformal_factor(p.xi)",
                        "two_w = 2.0 * np.ravel(geom.conformal_factor(p.xi))[0]")
    monkeypatch.setattr(test_elementwise, "ambient_frame", ambient.ambient_frame)
    checks = verify("flat", "all")
    assert failed(checks, *checks) == []
    checks = verify("sphere", "all")
    assert failed(checks, *checks) == ["closedness", "exactness", "det_oracle", "stokes"]
    stack = [(0.3, -0.2, 1.0, 0.5), (1.1, 0.7, -0.4, 2.0), (-1.6, 0.4, 0.8, -1.2)]
    test_elementwise.assert_frame_and_theta_pointwise(request.getfixturevalue("flat"), stack)
    for geometry in ("sphere", "bump"):
        with pytest.raises(AssertionError):
            test_elementwise.assert_frame_and_theta_pointwise(
                request.getfixturevalue(geometry), stack)
