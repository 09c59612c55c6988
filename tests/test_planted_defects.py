"""Planted defects: each paired check must fail when one side of its pair is wrong.

Every test patches one plausible defect into the code under test (never into
the check), runs the verify suite that owns the check at its pinned
``cli.DEFAULT_TOLERANCES`` value and asserts that the check fails.
"""

import dataclasses

import numpy as np
import pytest

from neutralkahler import cli, graphs, rotsym
from neutralkahler.ambient import AmbientFrame, ambient_frame
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
        return AmbientFrame(G4, O4, frame.J4)

    monkeypatch.setattr(graphs, "ambient_frame", wrapped)
    monkeypatch.setattr(cli, "ambient_frame", wrapped)


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
    assert failed(verify("sphere", "ambient"), "compatibility") == ["compatibility"]


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
        return dataclasses.replace(co, **{name: getattr(co, name) * (1.0 + 1e-3)})

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
