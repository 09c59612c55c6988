"""Batch entry point: verification suites, reports, family sweeps, export.

One task per invocation; every randomized sweep draws from a Philox
counter-based generator seeded from the run configuration, so identical
configurations produce identical JSON reports (up to the timestamp
field). Reports list one entry per check with its explicit tolerance:

    {"schema": 1, "task": ..., "checks": [{name, value, tolerance, passed}], ...}

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration
error, 3 I/O error. The output directory may be overridden with the
``NKLAB_OUTPUT_DIR`` environment variable.
"""

from __future__ import annotations

import argparse
import configparser
import datetime
import itertools
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .ambient import (
    AmbientFrame,
    TangentPoint,
    ambient_frame,
    ambient_signature,
    calibration_gap,
    theta_form,
)
from .errors import AmbiguousSignatureError, ConfigError, DomainError, NeutralKahlerError
from .graphs import (
    _SKIP_REASONS,
    GraphSection,
    _residual_map,
    _slopes_on,
    _write_classification_csv,
    area,
    bump_basis,
    first_variation,
    pullback_determinant,
    stokes_check,
)
from .graphs import el_residual  # noqa: F401  (unused; bench/test_bench.py traces this binding)
from .lines3d import TorusFamily, export_congruence, torus_section
from .numerics import DEFAULT_BAND_HALF_WIDTH, AnnulusGrid, _polar
from .rotsym import (
    FamilyParams,
    comfortable_range,
    ode_residuals,
    psi_closed_form,
    stationary_family,
)
from .sampling import (
    geometry_by_name,
    j_invariant_plane,
    random_family_profiles,
    random_lagrangian_section,
    random_plane,
    random_polynomial_section,
    random_tangent_coords,
    rng_from_seed,
)

TASKS = ("verify", "residual", "area", "variation", "classify", "export")
_FORMATS = ("obj", "csv")

#: default check tolerances; every report entry cites one of these or an override
DEFAULT_TOLERANCES = {
    "calibration_floor": 1e-10,
    "jplane_gap": 1e-10,
    "compatibility": 1e-9,
    "closedness": 1e-6,
    "exactness": 1e-6,
    "det_oracle": 1e-6,
    "stokes": 1e-6,
    "residual_max": 1e-6,
    "first_variation_rel": 1e-5,
    "ode_residual": 1e-6,
    "psi_quadrature": 1e-6,
}


@dataclass
class RunConfig:
    """Resolved options of one CLI invocation."""

    task: str
    geometry: Optional[str] = None  # "sphere" with the --C2 shorthand, else "flat"
    suite: str = "all"
    samples: int = 500
    seed: int = 0
    a1: float = 0.0
    b1: float = 0.0
    a2: Optional[float] = None
    b2: Optional[float] = None
    c2: Optional[float] = None
    branch: int = 1
    rmin: float = 0.5
    rmax: float = 2.5
    grid_r: int = 32
    grid_theta: int = 32
    exclude: tuple[tuple[float, float], ...] = ()
    half_length: float = 3.0
    fmt: str = "obj"
    out: Optional[str] = None
    report: Optional[str] = None
    tol: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task '{self.task}'")
        if self.geometry is None:
            self.geometry = "sphere" if self.c2 is not None else "flat"
        if self.geometry not in ("flat", "sphere"):
            raise ConfigError(f"unknown geometry '{self.geometry}'")
        if self.c2 is not None and self.geometry != "sphere":
            raise ConfigError("the --B2/--C2 torus shorthand lives over the round sphere")
        if self.task == "export" and self.geometry != "sphere":
            raise ConfigError("line congruences exist over the round sphere only")
        if self.suite not in _SUITES:
            raise ConfigError(f"unknown verify suite '{self.suite}'")
        if self.branch not in (1, -1):
            raise ConfigError(f"branch must be +1 or -1, got {self.branch}")
        if self.fmt not in _FORMATS:
            raise ConfigError(f"unknown export format '{self.fmt}'")
        if self.samples <= 0:
            raise ConfigError("samples must be positive")
        if self.grid_r < 2 or self.grid_theta < 4:
            raise ConfigError(f"grid needs >= 2x4 nodes, got {self.grid_r}x{self.grid_theta}")
        if not 0.0 < self.rmin < self.rmax < np.inf:
            raise ConfigError(f"need 0 < rmin < rmax < inf, got rmin={self.rmin}, rmax={self.rmax}")
        if not all(np.isfinite(c) and 0.0 < h < np.inf for c, h in self.exclude):
            raise ConfigError(f"exclusion bands {list(self.exclude)} need finite centres and "
                              "positive finite half-widths")
        if not 0.0 < self.half_length < np.inf:
            raise ConfigError(f"half-length must be positive and finite, got {self.half_length}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        unknown = set(self.tol) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ConfigError(f"unknown tolerance overrides: {sorted(unknown)}")

    def tolerance(self, name: str) -> float:
        return float(self.tol.get(name, DEFAULT_TOLERANCES[name]))


def _output_path(path: str) -> Path:
    """``path`` under the output directory unless absolute, its parent directory created."""
    p = Path(os.environ.get("NKLAB_OUTPUT_DIR", "."), path)
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


class Report:
    def __init__(self, config: RunConfig):
        self.config = config
        self.checks: list[dict] = []
        self.values: dict = {}
        self.artifacts: list[str] = []

    def check(
        self,
        name: str,
        value: float,
        tolerance: float,
        passed: Optional[bool] = None,
        evaluated: Optional[int] = None,
        worst_at: Optional[dict] = None,
    ):
        """Record one check; a sweep that reports ``evaluated == 0`` points fails.
        ``worst_at`` says where a max-type check found its value."""
        if passed is None:
            passed = bool(value <= tolerance)
        entry = {"name": name, "value": float(value), "tolerance": float(tolerance),
                 "passed": passed and evaluated != 0}
        if evaluated is not None:
            entry["evaluated"] = evaluated
        if worst_at is not None:
            entry["worst_at"] = worst_at
        self.checks.append(entry)

    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def as_dict(self) -> dict:
        cfg = {
            "task": self.config.task,
            "geometry": self.config.geometry,
            "seed": self.config.seed,
            "grid": [self.config.grid_r, self.config.grid_theta],
            "r_range": [self.config.rmin, self.config.rmax],
            "exclude": [list(b) for b in self.config.exclude],
            "tolerance_overrides": dict(sorted(self.config.tol.items())),
        }
        if self.config.task == "verify":
            cfg["suite"] = self.config.suite
            cfg["samples"] = self.config.samples
        return {
            "schema": 1,
            "version": __version__,
            "task": self.config.task,
            "config": cfg,
            "checks": self.checks,
            "values": self.values,
            "artifacts": self.artifacts,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# section and grid construction
# ---------------------------------------------------------------------------


def _build_section(config: RunConfig) -> tuple[GraphSection, tuple[float, float]]:
    """Family section plus the admissible radial range for grids."""
    if config.c2 is not None:
        if config.b2 is None:
            raise ConfigError("torus shorthand needs both --B2 and --C2")
        fam = TorusFamily(config.b2, config.c2, config.branch)
        return torus_section(fam), (config.rmin, config.rmax)
    if config.a2 is None:
        raise ConfigError("family tasks need --A2/--B2 (or the sphere --B2/--C2 shorthand)")
    params = FamilyParams(config.a1, config.b1, config.a2, config.b2 or 0.0)
    geom = geometry_by_name(config.geometry)
    profile = stationary_family(geom, params, config.branch, (config.rmin, config.rmax))
    return profile.section(), comfortable_range(profile)


def _section_and_grid(config: RunConfig) -> tuple[GraphSection, AnnulusGrid]:
    """Family section and the task's lattice grid over its admissible radial range."""
    section, (lo, hi) = _build_section(config)
    return section, AnnulusGrid(lo, hi, config.grid_r, config.grid_theta, config.exclude)


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _suite_ambient(config: RunConfig, report: Report) -> None:
    geom = geometry_by_name(config.geometry)
    rng = rng_from_seed(config.seed)
    n = config.samples

    def draw_frames(draw, count):
        """``count`` draws of a tangent point, each followed by ``draw(rng)``: the
        points, and pairs of frame and draw. The frames come from one
        ``ambient_frame`` call on all the points and are then taken one per
        point, for the kernels that stay per point."""
        drawn = [(random_tangent_coords(rng), draw(rng)) for _ in range(count)]
        xi, eta = np.array([point for point, _ in drawn]).T
        stack = ambient_frame(geom, TangentPoint(xi, eta))
        return (xi, eta), [(AmbientFrame(g, o), extra)
                           for g, o, (_, extra) in zip(stack.G4, stack.O4, drawn)]

    def worst(values, points):
        """The largest of ``values`` (a NaN wins, so it fails the check) and the
        ``xi``, ``eta`` of its point."""
        k = np.argmax(values)
        return values[k], {name: [c[k].real.item(), c[k].imag.item()]
                           for name, c in zip(("xi", "eta"), points)}

    points, frames = draw_frames(random_plane, n)
    gaps = np.array([calibration_gap(frame, v1, v2) for frame, (v1, v2) in frames])
    value, at = worst(-gaps, points)
    report.check("calibration_floor", value, config.tolerance("calibration_floor"),
                 evaluated=gaps.size, worst_at=at)

    points, frames = draw_frames(j_invariant_plane, max(n // 10, 10))
    gaps = np.abs([calibration_gap(frame, v1, v2) for frame, (v1, v2) in frames])
    value, at = worst(gaps, points)
    report.check("jplane_gap", value, config.tolerance("jplane_gap"),
                 evaluated=gaps.size, worst_at=at)

    sig_bad = 0
    compat = []
    points, frames = draw_frames(lambda rng: (rng.normal(size=4), rng.normal(size=4)), n)
    for frame, (a, b) in frames:
        # a singular or non-finite metric has no signature
        try:
            sig_bad += ambient_signature(frame) != (2, 2)
        except (AmbiguousSignatureError, DomainError):
            sig_bad += 1
        scale = max(1.0, float(np.max(np.abs(frame.G4))))
        ja, jb = frame.J4 @ a, frame.J4 @ b
        compat.append((abs(frame.metric(ja, jb) - frame.metric(a, b)) / scale,
                       abs(frame.metric(a, b) - frame.symplectic(ja, b)) / scale))
    report.check("signature_defects", float(sig_bad), 0.0, passed=(sig_bad == 0),
                 evaluated=len(frames))
    value, at = worst(np.max(compat, axis=1), points)
    report.check("compatibility", value, config.tolerance("compatibility"),
                 evaluated=len(frames), worst_at=at)

    # d(Omega) and d(Theta) by central differences: the centre and its 8 shifts
    # along the coordinates (x, y, p, q), all in one evaluation
    h = 1e-5
    c0 = np.array([[xi.real, xi.imag, eta.real, eta.imag] for xi, eta in
                   (random_tangent_coords(rng) for _ in range(min(max(n // 20, 5), 50)))])
    c = c0[:, None, :] + np.concatenate([np.zeros((1, 4)), h * np.eye(4), -h * np.eye(4)])
    p = TangentPoint(c[..., 0] + 1j * c[..., 1], c[..., 2] + 1j * c[..., 3])
    omega, theta = ambient_frame(geom, p).O4, theta_form(geom, p).components
    grads_o = (omega[:, 1:5] - omega[:, 5:]) / (2 * h)  # [draw, coordinate, a, b]
    grads_t = (theta[:, 1:5] - theta[:, 5:]) / (2 * h)
    a_, b_, c_ = np.array(list(itertools.combinations(range(4), 3))).T
    cyc = grads_o[:, a_, b_, c_] + grads_o[:, b_, c_, a_] + grads_o[:, c_, a_, b_]
    exact = grads_t - grads_t.swapaxes(1, 2) - omega[:, 0]
    report.check("closedness", np.max(np.abs(cyc)), config.tolerance("closedness"),
                 evaluated=len(c0))
    report.check("exactness", np.max(np.abs(exact)), config.tolerance("exactness"),
                 evaluated=len(c0))


def _suite_graphs(config: RunConfig, report: Report) -> None:
    geom = geometry_by_name(config.geometry)
    rng = rng_from_seed(config.seed + 1)
    n_sections = max(config.samples // 10, 10)

    rel, at = [], []
    for _ in range(n_sections):
        section = random_polynomial_section(rng, geom)
        xi = np.array([complex(*rng.normal(size=2)) for _ in range(5)])
        sl = _slopes_on(section, xi)
        # a relative comparison means nothing at determinant zeros
        keep = ~(np.abs(sl.det_factor) < 1e-3 * (sl.lam**2 + np.abs(sl.sigma) ** 2 + 1e-6))
        d1 = (sl.det_factor * geom.conformal_factor(xi) ** 2)[keep]
        d2 = pullback_determinant(section, xi[keep])
        rel.extend(np.abs(d1 - d2) / np.maximum(np.abs(d1), 1e-12))
        at.extend(xi[keep])
    value, xi = max(zip(rel, at), key=lambda entry: entry[0], default=(0.0, None))
    report.check("det_oracle", value, config.tolerance("det_oracle"), evaluated=len(rel),
                 worst_at=None if xi is None else {"xi": [float(xi.real), float(xi.imag)]})

    stokes = []
    for k in range(max(n_sections // 5, 3)):
        grid = AnnulusGrid(0.6 + 0.1 * (k % 3), 1.8 + 0.1 * (k % 4), 24, 32)
        poly = random_polynomial_section(rng, geom, scale=0.3)
        lag = random_lagrangian_section(rng, geom)
        for kind, section in (("polynomial", poly), ("lagrangian", lag)):
            interior, boundary = stokes_check(section, grid)
            stokes.append((abs(interior - boundary) / (1.0 + abs(interior)), grid, kind))
    value, grid, kind = max(stokes, key=lambda entry: entry[0])
    report.check("stokes", value, config.tolerance("stokes"),
                 worst_at={"r_range": [grid.r_min, grid.r_max], "section": kind})


def _worst_over_profiles(sweeps: list, *names: str) -> tuple[float, dict]:
    """Largest value of equal-length per-profile ``(values, params, *coordinates)``
    sweeps, and where it lies: the coordinates there, keyed by ``names``, and the
    family parameters unless ``params`` is None; a NaN value wins, so it fails
    the check."""
    values = np.stack([v for v, *_ in sweeps])
    k, j = np.unravel_index(np.argmax(values), values.shape)
    _, p, *coords = sweeps[k]
    at = {name: c[j].item() for name, c in zip(names, coords)}
    if p is not None:
        at["params"] = [p.a1, p.b1, p.a2, p.b2]
    return float(values[k, j]), at


def _variation_sweep(section: GraphSection, grid: AnnulusGrid, bumps: list) -> tuple:
    """The section's area and ``|first variation| / area`` along each of ``bumps``,
    in their order."""
    a_val = area(section, grid)
    fv = np.array([abs(first_variation(section, bump, grid)) for bump in bumps])
    return a_val, fv / max(a_val, 1e-12)


def _suite_rotsym(config: RunConfig, report: Report) -> None:
    geom = geometry_by_name(config.geometry)
    rng = rng_from_seed(config.seed + 2)
    tuples = random_family_profiles(rng, config.geometry, max(config.samples // 40, 5))

    # the second residual is nan where its coefficients are undefined; that
    # radius then counts once, for the first equation
    sweeps, evaluated = [], 0
    for params, profile in tuples:
        rs = np.linspace(*comfortable_range(profile), 9)
        r1, r2 = ode_residuals(geom, profile.H, profile.psi, rs)
        defined = ~np.isnan(r2)
        sweeps.append((np.maximum(np.abs(r1), np.where(defined, np.abs(r2), 0.0)), params, rs))
        evaluated += rs.size + int(np.count_nonzero(defined))
    value, worst_at = _worst_over_profiles(sweeps, "R")
    report.check("ode_residual", value, config.tolerance("ode_residual"),
                 evaluated=evaluated, worst_at=worst_at)

    # quadrature solution vs. closed form, modulo the anchored-integral
    # constant (a shift of b2 by the antiderivative value at the left end)
    sweeps = []
    for params, profile in tuples[: max(len(tuples) // 2, 3)]:
        lo, hi = profile.domain
        quad = psi_closed_form(geom, profile.H, params.a2, params.b2, (lo, hi))
        shift = -params.b1**2 * np.exp(-2.0 * geom.radial_u(lo)) / lo**2
        rs = np.linspace(lo, hi, 17)
        expect = profile.psi(rs) - shift * np.exp(-2.0 * geom.radial_u(rs))
        sweeps.append((np.abs(quad(rs) - expect) / np.maximum(np.abs(expect), 1.0), params, rs))
    value, worst_at = _worst_over_profiles(sweeps, "R")
    report.check("psi_quadrature", value, config.tolerance("psi_quadrature"),
                 evaluated=sum(rs.size for *_, rs in sweeps), worst_at=worst_at)


def _suite_families(config: RunConfig, report: Report) -> None:
    rng = rng_from_seed(config.seed + 3)
    tuples = random_family_profiles(rng, config.geometry, max(config.samples // 50, 4))

    sweeps, variations, evaluated = [], [], 0
    for params, profile in tuples:
        section = profile.section()
        lo, hi = comfortable_range(profile)
        grid = AnnulusGrid(lo, hi, 16, 16)
        rs, ts = (c[:: max(1, c.size // 40)] for c in grid._lattice())
        values, codes = _residual_map(section, _polar(rs, ts))
        kept = codes == 0
        sweeps.append((np.where(kept, np.abs(values), 0.0), params, rs, ts))
        evaluated += int(np.count_nonzero(kept))
        _, rel = _variation_sweep(section, grid, bump_basis(grid.r_min, grid.r_max)[:4])
        variations.append((rel, params, np.arange(rel.size)))
    worst_res, worst_at = _worst_over_profiles(sweeps, "R", "theta")
    report.check("residual_max", worst_res, config.tolerance("residual_max"),
                 evaluated=evaluated, worst_at=worst_at if evaluated else None)
    worst_fv, worst_at = _worst_over_profiles(variations, "bump")
    report.check("first_variation_rel", worst_fv, config.tolerance("first_variation_rel"),
                 worst_at=worst_at)


_SUITES = {
    "ambient": (_suite_ambient,),
    "graphs": (_suite_graphs,),
    "rotsym": (_suite_rotsym,),
    "families": (_suite_families,),
    "all": (_suite_ambient, _suite_graphs, _suite_rotsym, _suite_families),
}


def _run_verify(config: RunConfig, report: Report) -> None:
    for fn in _SUITES[config.suite]:
        fn(config, report)


# ---------------------------------------------------------------------------
# section tasks
# ---------------------------------------------------------------------------


def _run_residual(config: RunConfig, report: Report) -> None:
    section, grid = _section_and_grid(config)
    rs, ts = grid._lattice()
    xi = _polar(rs, ts)
    values, codes = _residual_map(section, xi)
    kept = codes == 0
    report.values["skipped_nodes"] = int(np.count_nonzero(~kept))
    report.values["skipped_by_reason"] = {
        reason: int(np.count_nonzero(codes == k)) for k, reason in enumerate(_SKIP_REASONS, 1)
    }
    value, worst_at = 0.0, None
    if kept.any():
        k = np.argmax(np.where(kept, np.abs(values), 0.0))
        value, worst_at = float(np.abs(values[k])), {"R": float(rs[k]), "theta": float(ts[k])}
    report.check("residual_max", value, config.tolerance("residual_max"),
                 evaluated=int(np.count_nonzero(kept)), worst_at=worst_at)
    if config.out:
        _write_classification(config, report, rs, ts, _slopes_on(section, xi), np.abs(values))


def _run_area(config: RunConfig, report: Report) -> None:
    section, grid = _section_and_grid(config)
    report.values["area"] = area(section, grid)


def _run_variation(config: RunConfig, report: Report) -> None:
    section, grid = _section_and_grid(config)
    report.values["area"], rel = _variation_sweep(section, grid, bump_basis(grid.r_min, grid.r_max))
    worst, worst_at = _worst_over_profiles([(rel, None, np.arange(rel.size))], "bump")
    report.check("first_variation_rel", worst, config.tolerance("first_variation_rel"),
                 worst_at=worst_at)


def _run_classify(config: RunConfig, report: Report) -> None:
    section, grid = _section_and_grid(config)
    rs, ts = grid._lattice()
    xi = _polar(rs, ts)
    sl = _slopes_on(section, xi)
    counts = Counter(sl.classify().tolist())
    report.values["class_counts"] = dict(sorted((str(c), n) for c, n in counts.items()))
    if config.out:
        residual = np.abs(_residual_map(section, xi)[0])
        _write_classification(config, report, rs, ts, sl, residual)


def _write_classification(config: RunConfig, report: Report, *table) -> None:
    """The ``--out`` CSV of ``residual`` and ``classify``, from the task's lattice table."""
    path = _output_path(config.out)
    report.values["csv_rows"] = _write_classification_csv(path, *table)
    report.artifacts.append(str(path))


def _run_export(config: RunConfig, report: Report) -> None:
    section, grid = _section_and_grid(config)
    if not config.out:
        raise ConfigError("export needs --out")
    path = _output_path(config.out)
    segments = export_congruence(section, grid, config.half_length, config.fmt, path)
    expected = grid._lattice()[0].size
    report.values["segments"] = segments
    report.check("export_segments", float(abs(segments - expected)), 0.0,
                 passed=(segments == expected), evaluated=segments)
    report.artifacts.append(str(path))


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute one task; returns (exit_code, report_dict) and writes the report."""
    report = Report(config)
    runners = {
        "verify": _run_verify,
        "residual": _run_residual,
        "area": _run_area,
        "variation": _run_variation,
        "classify": _run_classify,
        "export": _run_export,
    }
    runners[config.task](config, report)
    report_path = _output_path(config.report or f"{config.task}_report.json")
    report.write(report_path)
    return (0 if report.all_passed() else 1), report.as_dict()


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parse_exclude(values: list[str]) -> tuple[tuple[float, float], ...]:
    bands = []
    for v in values:
        try:
            center, _, width = v.partition(":")
            bands.append(
                (float(center), float(width) if width else DEFAULT_BAND_HALF_WIDTH)
            )
        except ValueError as exc:
            raise ConfigError(f"bad exclusion band '{v}' (use CENTER:HALFWIDTH)") from exc
    return tuple(bands)


def _parse_tols(values: list[str]) -> dict:
    out = {}
    for v in values:
        name, sep, val = v.partition("=")
        if not sep:
            raise ConfigError(f"bad tolerance override '{v}' (use NAME=VALUE)")
        try:
            out[name] = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in '{v}'") from exc
    return out


def _load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file '{path}'")
    flat: dict[str, str] = {}
    for section in parser.sections():
        flat.update(dict(parser[section]))
    flat.update(dict(parser.defaults()))
    return flat


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nklab",
        description="Neutral Kahler laboratory: verification suites, residual and "
        "classification reports, stationary families, line-congruence export.",
    )
    parser.add_argument("--version", action="version", version=f"nklab {__version__}")
    sub = parser.add_subparsers(dest="task")

    def add_common(p):
        p.add_argument("--config", help="key=value configuration file; flags override it")
        p.add_argument("--geometry", choices=("flat", "sphere"))
        p.add_argument("--seed", type=int)
        p.add_argument("--grid", help="radial x angular resolution, e.g. 64x64")
        p.add_argument("--rmin", type=float)
        p.add_argument("--rmax", type=float)
        p.add_argument("--exclude", action="append", default=None,
                       help="radial exclusion band CENTER:HALFWIDTH (repeatable)")
        p.add_argument("--tol", action="append", default=None,
                       help="tolerance override NAME=VALUE (repeatable)")
        p.add_argument("--report", help="JSON report path")
        p.add_argument("--out", help="artifact path (CSV/OBJ)")

    def add_family(p):
        p.add_argument("--A1", dest="a1", type=float)
        p.add_argument("--B1", dest="b1", type=float)
        p.add_argument("--A2", dest="a2", type=float)
        p.add_argument("--B2", dest="b2", type=float)
        p.add_argument("--C2", dest="c2", type=float,
                       help="sphere torus shorthand (with --B2)")
        p.add_argument("--branch", type=int, choices=(1, -1))

    p_verify = sub.add_parser("verify", help="run a seeded verification suite")
    add_common(p_verify)
    p_verify.add_argument("--suite", choices=tuple(_SUITES))
    p_verify.add_argument("--samples", type=int)

    for name, help_ in (
        ("residual", "stationarity residual sweep over a family section"),
        ("area", "area of a family section over an annulus"),
        ("variation", "first-variation sweep over the bump basis"),
        ("classify", "classification map of a family section"),
    ):
        p = sub.add_parser(name, help=help_)
        add_common(p)
        add_family(p)

    p_export = sub.add_parser("export", help="export a line congruence mesh")
    add_common(p_export)
    add_family(p_export)
    p_export.add_argument("--half-length", dest="half_length", type=float)
    p_export.add_argument("--format", dest="fmt", choices=_FORMATS)

    return parser


_CONFIG_CASTS = {
    "samples": int,
    "seed": int,
    "branch": int,
    "a1": float, "b1": float, "a2": float, "b2": float, "c2": float,
    "rmin": float, "rmax": float, "half_length": float,
    "grid_r": int, "grid_theta": int,
}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if not args.task:
        raise ConfigError("no task given; see --help")
    values: dict = {}
    if getattr(args, "config", None):
        for key, raw in _load_config_file(args.config).items():
            key = key.replace("-", "_")
            if key == "format":  # the file spelling of --format
                key = "fmt"
            if key == "grid":
                values["grid"] = raw
            elif key == "exclude":
                values["exclude"] = _parse_exclude(raw.split())
            elif key == "tol":
                values["tol"] = _parse_tols(raw.split())
            elif key in _CONFIG_CASTS:
                values[key] = _CONFIG_CASTS[key](raw)
            else:
                values[key] = raw

    for key, val in vars(args).items():
        if key in ("config",) or val is None:
            continue
        values[key] = val

    grid_spec = values.pop("grid", None)
    if isinstance(grid_spec, str):
        try:
            gr, _, gt = grid_spec.lower().partition("x")
            values["grid_r"], values["grid_theta"] = int(gr), int(gt)
        except ValueError as exc:
            raise ConfigError(f"bad grid spec '{grid_spec}' (use NxM)") from exc
    if isinstance(values.get("exclude"), list):
        values["exclude"] = _parse_exclude(values["exclude"])
    if isinstance(values.get("tol"), list):
        values["tol"] = _parse_tols(values["tol"])

    allowed = set(RunConfig.__dataclass_fields__)
    unknown = set(values) - allowed
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        code, report = run(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except NeutralKahlerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for check in report["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        evaluated = f" evaluated={check['evaluated']}" if "evaluated" in check else ""
        print(f"[{status}] {check['name']}: value={check['value']:.3e} "
              f"tolerance={check['tolerance']:.3e}{evaluated}")
    for key, val in report["values"].items():
        print(f"{key}: {val}")
    return code


if __name__ == "__main__":
    sys.exit(main())
