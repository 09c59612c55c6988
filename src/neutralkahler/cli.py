"""Batch entry point: verification suites, reports, family sweeps, export.

One task per invocation; every randomized sweep draws from a Philox
counter-based generator seeded from the run configuration, so identical
configurations produce identical JSON reports (up to the timestamp
field). Reports list one entry per check with its explicit tolerance:

    {"schema": 1, "task": ..., "checks": [{name, value, tolerance, passed}], ...}

Exit codes: 0 all checks passed, 1 a check failed or a library error
ended the run, 2 configuration error, 3 I/O error. The output directory
may be overridden with the ``NKLAB_OUTPUT_DIR`` environment variable.
"""

from __future__ import annotations

import dataclasses
import datetime
import functools
import itertools
import os
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Collection, NamedTuple, Optional, get_type_hints

import numpy as np

from . import __version__
from .ambient import (
    GEOMETRIES,
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
    _write_classification_csv,
    area,
    bump_basis,
    first_variations,
    pullback_determinant,
    slopes,
    stokes_check,
)
from .graphs import el_residual  # noqa: F401  (unused; bench/test_bench.py traces this binding)
from .lines3d import TorusFamily, export_congruence, torus_section
from .numerics import DEFAULT_BAND_HALF_WIDTH, AnnulusGrid, _ARMS, _polar, _richardson
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

if TYPE_CHECKING:  # the parser's types; the module itself is imported in _parser_for
    import argparse

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

    def check(self, name: str, value: float, tolerance: Optional[float] = None,
              evaluated: Optional[int] = None) -> dict:
        """Record one check and return its entry; it passes if ``value <=
        tolerance`` (the configured tolerance of ``name`` unless given) and the
        sweep, if it reports ``evaluated``, measured something."""
        if tolerance is None:
            tolerance = self.config.tolerance(name)
        entry = {"name": name, "value": float(value), "tolerance": float(tolerance),
                 "passed": bool(value <= tolerance) and evaluated != 0}
        if evaluated is not None:
            entry["evaluated"] = evaluated
        self.checks.append(entry)
        return entry

    def worst(self, name: str, sweeps: list, *names: str, evaluated: Optional[int] = None):
        """Record the max-type check ``name`` over equal-length per-profile
        ``(values, params, *coordinates)`` sweeps: the largest value, a NaN
        winning so that it fails, and where it lies (``worst_at``): the
        coordinates there, keyed by ``names`` (a row of a 2-D coordinate array
        as a list), and the family parameters unless ``params`` is None.
        ``evaluated`` defaults to the number of values; a sweep that evaluated
        nothing records 0.0 with no ``worst_at``, and fails."""
        values = np.stack([v for v, *_ in sweeps])
        evaluated = values.size if evaluated is None else evaluated
        if not evaluated:
            self.check(name, 0.0, evaluated=0)
            return
        k, j = np.unravel_index(np.argmax(values), values.shape)
        _, p, *coords = sweeps[k]
        at = {key: c[j].tolist() for key, c in zip(names, coords)}
        if p is not None:
            at["params"] = [p.a1, p.b1, p.a2, p.b2]
        self.check(name, values[k, j], evaluated=evaluated)["worst_at"] = at

    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def as_dict(self) -> dict:
        """The report, stamped with the time of this call."""
        cfg = {
            "task": self.config.task,
            "geometry": self.config.geometry,
            "seed": self.config.seed,
            "grid": list(self.config.grid),
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


# ---------------------------------------------------------------------------
# section and grid construction
# ---------------------------------------------------------------------------


def _section_and_grid(config: RunConfig) -> tuple[GraphSection, AnnulusGrid]:
    """Family section and the task's lattice grid over its admissible radial range."""
    if config.c2 is not None:
        section = torus_section(TorusFamily(config.b2, config.c2, config.branch))
        lo, hi = config.rmin, config.rmax
    else:
        params = FamilyParams(config.a1, config.b1, config.a2, config.b2 or 0.0)
        geom = geometry_by_name(config.geometry)
        profile = stationary_family(geom, params, config.branch, (config.rmin, config.rmax))
        section, (lo, hi) = profile.section(), comfortable_range(profile)
    return section, AnnulusGrid(lo, hi, *config.grid, config.exclude)


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _suite_ambient(config: RunConfig, report: Report) -> None:
    geom = geometry_by_name(config.geometry)
    rng = rng_from_seed(config.seed)
    n = config.samples

    def draw_frames(draw, count):
        """``count`` draws of a tangent point, each followed by ``draw(rng)``: the
        points' ``xi`` and ``eta`` as ``[re, im]`` rows, their frames from one
        ``ambient_frame`` call, and pairs of one point's frame and draw, for the
        kernels that stay per point."""
        drawn = [(random_tangent_coords(rng), draw(rng)) for _ in range(count)]
        xi, eta = np.array([point for point, _ in drawn]).T
        stack = ambient_frame(geom, TangentPoint(xi, eta))
        return (np.c_[xi.real, xi.imag], np.c_[eta.real, eta.imag]), stack, [
            (AmbientFrame(g, o), extra) for g, o, (_, extra) in zip(stack.G4, stack.O4, drawn)]

    points, _, frames = draw_frames(random_plane, n)
    gaps = np.array([calibration_gap(frame, v1, v2) for frame, (v1, v2) in frames])
    report.worst("calibration_floor", [(-gaps, None, *points)], "xi", "eta")

    points, _, frames = draw_frames(j_invariant_plane, max(n // 10, 10))
    gaps = np.abs([calibration_gap(frame, v1, v2) for frame, (v1, v2) in frames])
    report.worst("jplane_gap", [(gaps, None, *points)], "xi", "eta")

    sig_bad = 0
    points, stack, frames = draw_frames(lambda rng: (rng.normal(size=4), rng.normal(size=4)), n)
    for frame, _ in frames:
        # a singular or non-finite metric has no signature
        try:
            sig_bad += ambient_signature(frame) != (2, 2)
        except (AmbiguousSignatureError, DomainError):
            sig_bad += 1
    report.check("signature_defects", float(sig_bad), 0.0, evaluated=len(frames))
    # g(Ja, Jb) = g(a, b) and g(a, b) = omega(Ja, b) on the whole stack, each
    # relative to the frame's scale max(1, |G4|)
    a, b = np.array([draw for _, draw in frames]).transpose(1, 0, 2)
    ja, jb = a @ AmbientFrame.J4.T, b @ AmbientFrame.J4.T
    g_ab, g_jajb = np.einsum("kni,nij,knj->kn", [a, ja], stack.G4, [b, jb])
    omega_jab = np.einsum("ni,nij,nj->n", ja, stack.O4, b)
    scale = np.maximum(1.0, np.abs(stack.G4).max(axis=(1, 2)))
    compat = np.maximum(np.abs(g_jajb - g_ab), np.abs(g_ab - omega_jab)) / scale
    report.worst("compatibility", [(compat, None, *points)], "xi", "eta")

    # d(Omega) and d(Theta) by the difference rule (its roundoff eps/h and truncation h^4
    # meet near h = 1e-3) on the centre and its four real arms along each of (x, y, p, q)
    h = 1e-3
    c0 = np.array([[xi.real, xi.imag, eta.real, eta.imag] for xi, eta in
                   (random_tangent_coords(rng) for _ in range(min(max(n // 20, 5), 50)))])
    arms = (np.real(_ARMS[:4])[:, None] * np.eye(4)[:, None]).reshape(16, 4)
    c = c0[:, None, :] + h * np.concatenate([np.zeros((1, 4)), arms])
    p = TangentPoint(c[..., 0] + 1j * c[..., 1], c[..., 2] + 1j * c[..., 3])
    omega, theta = ambient_frame(geom, p).O4, theta_form(geom, p).components
    # the rule reads the arms along the first axis; the gradients are [draw, coordinate, a, b]
    grads_o, grads_t = (np.stack(_richardson(v[:, 1:].swapaxes(0, 1), h), axis=1)
                        for v in (omega, theta))
    a_, b_, c_ = np.array(list(itertools.combinations(range(4), 3))).T
    cyc = grads_o[:, a_, b_, c_] + grads_o[:, b_, c_, a_] + grads_o[:, c_, a_, b_]
    exact = grads_t - grads_t.swapaxes(1, 2) - omega[:, 0]
    # each sweep is the largest defect at each stencil centre
    centres = (c0[:, :2], c0[:, 2:])
    report.worst("closedness", [(np.abs(cyc).max(axis=1), None, *centres)], "xi", "eta")
    report.worst("exactness", [(np.abs(exact).max(axis=(1, 2)), None, *centres)], "xi", "eta")


def _suite_graphs(config: RunConfig, report: Report) -> None:
    geom = geometry_by_name(config.geometry)
    rng = rng_from_seed(config.seed + 1)
    n_sections = max(config.samples // 10, 10)

    rel, at = [], []
    for _ in range(n_sections):
        section = random_polynomial_section(rng, geom)
        xi = rng.normal(size=(5, 2)).view(complex).ravel()
        sl = slopes(section, xi)
        # a relative comparison means nothing at determinant zeros
        keep = ~(np.abs(sl.det_factor) < 1e-3 * (sl.lam**2 + np.abs(sl.sigma) ** 2 + 1e-6))
        d1 = (sl.det_factor * geom.conformal_factor(xi) ** 2)[keep]
        d2 = pullback_determinant(section, xi[keep])
        rel.append(np.abs(d1 - d2) / np.maximum(np.abs(d1), 1e-12))
        at.append(xi[keep])
    rel, at = np.concatenate(rel), np.concatenate(at)
    report.worst("det_oracle", [(rel, None, np.c_[at.real, at.imag])], "xi")

    stokes, r_ranges, kinds = [], [], []
    for k in range(max(n_sections // 5, 3)):
        grid = AnnulusGrid(0.6 + 0.1 * (k % 3), 1.8 + 0.1 * (k % 4), 24, 32)
        poly = random_polynomial_section(rng, geom, scale=0.3)
        lag = random_lagrangian_section(rng, geom)
        for kind, section in (("polynomial", poly), ("lagrangian", lag)):
            interior, boundary = stokes_check(section, grid)
            stokes.append(abs(interior - boundary) / (1.0 + abs(interior)))
            r_ranges.append([grid.r_min, grid.r_max])
            kinds.append(kind)
    report.worst("stokes", [(np.array(stokes), None, np.array(r_ranges), np.array(kinds))],
                 "r_range", "section")


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
    report.worst("ode_residual", sweeps, "R", evaluated=evaluated)

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
    report.worst("psi_quadrature", sweeps, "R")


def _suite_families(config: RunConfig, report: Report) -> None:
    rng = rng_from_seed(config.seed + 3)
    tuples = random_family_profiles(rng, config.geometry, max(config.samples // 50, 4))

    sweeps, variations, evaluated = [], [], 0
    for params, profile in tuples:
        section = profile.section()
        lo, hi = comfortable_range(profile)
        grid = AnnulusGrid(lo, hi, 16, 16)
        rs, ts = (c[:: max(1, c.size // 40)] for c in grid._lattice())
        values, codes, _ = _residual_map(section, _polar(rs, ts))
        kept = codes == 0
        sweeps.append((np.where(kept, np.abs(values), 0.0), params, rs, ts))
        evaluated += int(np.count_nonzero(kept))
        fv = first_variations(section, bump_basis(grid.r_min, grid.r_max)[:4], grid)
        rel = np.abs(fv) / max(area(section, grid), 1e-12)
        variations.append((rel, params, np.arange(rel.size)))
    report.worst("residual_max", sweeps, "R", "theta", evaluated=evaluated)
    report.worst("first_variation_rel", variations, "bump")


#: each suite's runners; ``all`` runs every suite above it, in order
_SUITES = {
    "ambient": (_suite_ambient,),
    "graphs": (_suite_graphs,),
    "rotsym": (_suite_rotsym,),
    "families": (_suite_families,),
}
_SUITES["all"] = sum(_SUITES.values(), ())


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
    values, codes, sl = _residual_map(section, xi)
    kept = codes == 0
    report.values["skipped_nodes"] = int(np.count_nonzero(~kept))
    report.values["skipped_by_reason"] = {
        reason: int(np.count_nonzero(codes == k)) for k, reason in enumerate(_SKIP_REASONS, 1)
    }
    report.worst("residual_max", [(np.where(kept, np.abs(values), 0.0), None, rs, ts)],
                 "R", "theta", evaluated=int(np.count_nonzero(kept)))
    if config.out:
        _write_classification(config, report, rs, ts, sl, np.abs(values), sl.classify())


def _run_area(config: RunConfig, report: Report) -> None:
    section, grid = _section_and_grid(config)
    report.values["area"] = area(section, grid)


def _run_variation(config: RunConfig, report: Report) -> None:
    section, grid = _section_and_grid(config)
    report.values["area"] = a_val = area(section, grid)
    fv = first_variations(section, bump_basis(grid.r_min, grid.r_max), grid)
    rel = np.abs(fv) / max(a_val, 1e-12)
    report.worst("first_variation_rel", [(rel, None, np.arange(rel.size))], "bump")


def _run_classify(config: RunConfig, report: Report) -> None:
    section, grid = _section_and_grid(config)
    rs, ts = grid._lattice()
    xi = _polar(rs, ts)
    if config.out:  # the residual map's stencil centres are the lattice's slopes
        values, _, sl = _residual_map(section, xi)
    else:
        sl = slopes(section, xi)
    classes = sl.classify()
    counts = Counter(classes.tolist())
    report.values["class_counts"] = dict(sorted((str(c), n) for c, n in counts.items()))
    if config.out:
        _write_classification(config, report, rs, ts, sl, np.abs(values), classes)


def _write_classification(config: RunConfig, report: Report, *table) -> None:
    """The ``--out`` CSV of ``residual`` and ``classify``, from the task's lattice table."""
    path = _output_path(config.out)
    report.values["csv_rows"] = _write_classification_csv(path, *table)
    report.artifacts.append(str(path))


def _run_export(config: RunConfig, report: Report) -> None:
    section, grid = _section_and_grid(config)
    path = _output_path(config.out)
    segments = export_congruence(section, grid, config.half_length, config.fmt, path)
    expected = grid._lattice()[0].size
    report.values["segments"] = segments
    report.check("export_segments", float(abs(segments - expected)), 0.0, evaluated=segments)
    report.artifacts.append(str(path))


#: each task's runner and help text, in ``--help`` order
TASKS = {
    "verify": (_run_verify, "run a seeded verification suite"),
    "residual": (_run_residual, "stationarity residual sweep over a family section"),
    "area": (_run_area, "area of a family section over an annulus"),
    "variation": (_run_variation, "first-variation sweep over the bump basis"),
    "classify": (_run_classify, "classification map of a family section"),
    "export": (_run_export, "export a line congruence mesh"),
}
#: the tasks that build a family section
_FAMILY_TASKS = tuple(task for task in TASKS if task != "verify")


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute one task; returns (exit_code, report_dict) and writes that report dict."""
    import json  # here, like argparse in _parser_for: importing the CLI loads neither
    report = Report(config)
    runner, _ = TASKS[config.task]
    runner(config, report)
    report_dict = report.as_dict()
    with open(_output_path(config.report or f"{config.task}_report.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report_dict, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return (0 if report.all_passed() else 1), report_dict


# ---------------------------------------------------------------------------
# options
# ---------------------------------------------------------------------------


class _Option(NamedTuple):
    """One ``nklab`` option, declared on the ``RunConfig`` field it sets (see
    ``_option``): its flag; ``parse``, which reads one string value and raises
    ``ValueError`` on a bad one; the ``choices`` (a live view, such as the
    geometry table's keys, is read at each check) or the ``rule`` (a predicate
    and what it asks) that the value meets; its help text; the tasks that
    take it, every task if None; and its default. A repeatable option
    collects its values with ``repeat`` (``tuple`` or ``dict``); a config
    file gives them separated by whitespace. ``field`` names the field it sets."""

    flag: str
    parse: Callable[[str], Any] = str
    tasks: Optional[tuple[str, ...]] = None
    choices: Optional[Collection] = None
    rule: Optional[tuple[Callable[[Any], bool], str]] = None
    help: Optional[str] = None
    repeat: Optional[type] = None
    field: str = ""
    default: Any = None

    @property
    def dest(self) -> str:
        """The flag without its dashes, in lower case: the argparse destination."""
        return self.flag[2:].lower()

    @property
    def keys(self) -> set[str]:
        """Its config-file keys: spelled like the flag, or like the field it sets."""
        return {self.dest, self.field}

    def read(self, raw):
        """The field value of one string, or of a list of strings if repeatable;
        a bad string raises ``ConfigError`` naming the option."""
        return self.repeat(map(self._parse, raw)) if self.repeat else self._parse(raw)

    def _parse(self, text: str):
        try:
            return self.parse(text)
        except ValueError as exc:
            raise ConfigError(f"bad {self.flag} value '{text}': {exc}") from exc

    def check(self, config: RunConfig) -> Any:
        """The value of the option in ``config``, each int where ``read`` returns
        a float made a float (so a report echoes ``1.0`` for ``1``), or the
        default where the task of ``config`` does not take the option. Raise
        ``ConfigError`` if the task does not take it but its value there is
        not the default; if the value is None where the default is not; if
        the value is not of the type that ``read`` returns; or if it misses the
        choices or the rule."""
        value = getattr(config, self.field)
        if self.tasks is not None and config.task not in self.tasks:
            if value != self.default:
                raise ConfigError(f"task '{config.task}' does not take {self.flag}, got {value!r}")
            return self.default
        if value is None:
            if self.default is not None:
                raise ConfigError(f"{self.flag} needs a value, got None")
            return value
        kind = _returns(self.parse)
        try:
            if not self.repeat:
                value = _as_kind(value, kind)
            elif isinstance(value, self.repeat):
                items = value.items() if isinstance(value, dict) else value
                value = self.repeat(_as_kind(v, kind) for v in items)
            else:
                raise TypeError
        except TypeError:
            name = kind.__name__ if isinstance(kind, type) else str(kind)
            if self.repeat:
                name = f"a {self.repeat.__name__} of {name}"
            raise ConfigError(f"{self.flag} takes {name}, got {value!r}") from None
        if self.choices is not None and value not in self.choices:
            raise ConfigError(f"{self.flag} must be one of {tuple(self.choices)}, got {value!r}")
        if self.rule is not None and not self.rule[0](value):
            raise ConfigError(f"{self.flag} {self.rule[1]}, got {value!r}")
        return value


@functools.lru_cache(maxsize=None)
def _returns(parse: Callable[[str], Any]) -> Any:
    """The type that ``parse`` returns: ``parse`` itself if it is a type, else its
    return annotation, resolved at the first check of an option it parses
    (``get_type_hints`` costs more than the rest of a check)."""
    return parse if isinstance(parse, type) else get_type_hints(parse)["return"]


def _as_kind(value, kind):
    """``value`` as the parser would return it, of ``kind``, a type or a
    ``tuple[...]`` of types: each int where ``kind`` has a float made a float.
    Raise ``TypeError`` if ``value`` is not of ``kind``: an int passes for a
    float, and a bool for no kind."""
    if isinstance(kind, type):
        if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float
                                                     else kind):
            raise TypeError(f"{value!r} is not of {kind}")
        return float(value) if kind is float else value
    if not (isinstance(value, tuple) and len(value) == len(kind.__args__)):
        raise TypeError(f"{value!r} is not of {kind}")
    return tuple(map(_as_kind, value, kind.__args__))


def _option(flag: str, default: Any, parse: Callable[[str], Any] = str, **spec) -> Any:
    """A ``RunConfig`` field with ``default`` (``dict`` for a fresh empty dict),
    set by the option ``flag``; ``spec`` as in ``_Option``."""
    meta = {"option": _Option(flag, parse, default={} if default is dict else default, **spec)}
    if default is dict:
        return field(default_factory=dict, metadata=meta)
    return field(default=default, metadata=meta)


def _parse_grid(text: str) -> tuple[int, int]:
    """``NxM``: radial by angular nodes."""
    radial, sep, angular = text.lower().partition("x")
    if not sep:
        raise ValueError("use NxM")
    return int(radial), int(angular)


def _parse_band(text: str) -> tuple[float, float]:
    """``CENTER[:HALFWIDTH]``, the half-width ``DEFAULT_BAND_HALF_WIDTH`` if omitted."""
    center, _, width = text.partition(":")
    return float(center), float(width) if width else DEFAULT_BAND_HALF_WIDTH


def _parse_tol(text: str) -> tuple[str, float]:
    """``NAME=VALUE``."""
    name, sep, value = text.partition("=")
    if not sep:
        raise ValueError("use NAME=VALUE")
    return name, float(value)


#: the rule of each family constant
_FINITE = (np.isfinite, "must be finite")


@dataclass
class RunConfig:
    """Resolved options of one CLI invocation, the whole contract of a run: one
    that constructs meets every rule of its task. Each field but ``task``
    declares the option that sets it; this is the option table that the
    subcommands and the config-file reader are built from."""

    task: str
    # "sphere" with the --C2 shorthand, else "flat"
    geometry: Optional[str] = _option("--geometry", None, choices=GEOMETRIES.keys())
    suite: str = _option("--suite", "all", choices=tuple(_SUITES), tasks=("verify",))
    samples: int = _option("--samples", 500, int, tasks=("verify",),
                           rule=(lambda n: n > 0, "must be positive"))
    seed: int = _option("--seed", 0, int, rule=(lambda s: s >= 0, "must be non-negative"))
    a1: float = _option("--A1", 0.0, float, tasks=_FAMILY_TASKS, rule=_FINITE)
    b1: float = _option("--B1", 0.0, float, tasks=_FAMILY_TASKS, rule=_FINITE)
    a2: Optional[float] = _option("--A2", None, float, tasks=_FAMILY_TASKS, rule=_FINITE)
    b2: Optional[float] = _option("--B2", None, float, tasks=_FAMILY_TASKS, rule=_FINITE)
    c2: Optional[float] = _option("--C2", None, float, tasks=_FAMILY_TASKS, rule=_FINITE,
                                  help="sphere torus shorthand (with --B2)")
    branch: int = _option("--branch", 1, int, choices=(1, -1), tasks=_FAMILY_TASKS)
    rmin: float = _option("--rmin", 0.5, float)
    rmax: float = _option("--rmax", 2.5, float)
    grid: tuple[int, int] = _option("--grid", (32, 32), _parse_grid,
                                    rule=(lambda g: g[0] >= 2 and g[1] >= 4, "needs >= 2x4 nodes"),
                                    help="radial x angular resolution, e.g. 64x64")
    exclude: tuple[tuple[float, float], ...] = _option(
        "--exclude", (), _parse_band, repeat=tuple,
        rule=(lambda bands: all(np.isfinite(c) and 0.0 < h < np.inf for c, h in bands),
              "needs finite centres and positive finite half-widths"),
        help="radial exclusion band CENTER:HALFWIDTH (repeatable)")
    half_length: float = _option("--half-length", 3.0, float, tasks=("export",),
                                 rule=(lambda h: 0.0 < h < np.inf, "must be positive and finite"))
    fmt: str = _option("--format", "obj", choices=("obj", "csv"), tasks=("export",))
    out: Optional[str] = _option("--out", None, help="artifact path (CSV/OBJ)")
    report: Optional[str] = _option("--report", None, help="JSON report path")
    tol: dict = _option("--tol", dict, _parse_tol, repeat=dict,
                        rule=(lambda tol: set(tol) <= set(DEFAULT_TOLERANCES)
                              and all(0.0 <= t < np.inf for t in tol.values()),
                              f"takes only the checks {sorted(DEFAULT_TOLERANCES)}, "
                              "each with a finite tolerance >= 0"),
                        help="tolerance override NAME=VALUE (repeatable)")

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task '{self.task}'")
        for option in _OPTIONS:
            setattr(self, option.field, option.check(self))
        # the rules that join fields
        if self.geometry is None:
            self.geometry = "sphere" if self.c2 is not None else "flat"
        if self.c2 is not None and self.geometry != "sphere":
            raise ConfigError("the --B2/--C2 torus shorthand lives over the round sphere")
        if self.task == "export" and self.geometry != "sphere":
            raise ConfigError("line congruences exist over the round sphere only")
        if not 0.0 < self.rmin < self.rmax < np.inf:
            raise ConfigError(f"need 0 < rmin < rmax < inf, got rmin={self.rmin}, rmax={self.rmax}")
        if self.c2 is not None and self.b2 is None:
            raise ConfigError("torus shorthand needs both --B2 and --C2")
        if self.task in _FAMILY_TASKS and self.c2 is None and self.a2 is None:
            raise ConfigError("family tasks need --A2/--B2 (or the sphere --B2/--C2 shorthand)")
        if self.task == "export" and not self.out:
            raise ConfigError("export needs --out")

    def tolerance(self, name: str) -> float:
        return float(self.tol.get(name, DEFAULT_TOLERANCES[name]))


#: every option, in field order, bound to the field it sets
_OPTIONS = tuple(f.metadata["option"]._replace(field=f.name)
                 for f in dataclasses.fields(RunConfig) if "option" in f.metadata)


def _task_options(task: str) -> dict[str, _Option]:
    """The options ``task`` takes, by argparse destination."""
    return {opt.dest: opt for opt in _OPTIONS if opt.tasks is None or task in opt.tasks}


def _load_config_file(path: str, options: dict[str, _Option]) -> dict:
    """The file's values by option destination: its sections, then its
    defaults, flattened (later ones win), the value of a repeatable option
    split at whitespace. A key that no option in ``options`` spells is an error."""
    import configparser  # here, so runs without --config never import it
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file '{path}'")
        flat: dict[str, str] = {}
        for section in parser.sections():
            flat.update(parser[section])
        flat.update(parser.defaults())
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file '{path}': {exc}") from exc
    dest_of = {key: dest for dest, opt in options.items() for key in opt.keys}
    unknown = sorted(set(flat) - set(dest_of))
    if unknown:
        raise ConfigError(f"config file '{path}' sets {unknown}, which the task does not take")
    return {dest_of[key]: raw.split() if options[dest_of[key]].repeat else raw
            for key, raw in flat.items()}


def build_parser() -> argparse.ArgumentParser:
    """The ``nklab`` parser, built once per set of geometry names (parsing leaves it unchanged)."""
    return _parser_for(tuple(GEOMETRIES))


@functools.lru_cache(maxsize=1)
def _parser_for(geometries: tuple) -> argparse.ArgumentParser:
    """The parser while ``GEOMETRIES`` holds the names ``geometries``, its cache key."""
    import argparse  # here, so importing the CLI does not load it
    parser = argparse.ArgumentParser(
        prog="nklab",
        description="Neutral Kahler laboratory: verification suites, residual and "
        "classification reports, stationary families, line-congruence export.",
    )
    parser.add_argument("--version", action="version", version=f"nklab {__version__}")
    sub = parser.add_subparsers(dest="task")
    for task, (_, help_) in TASKS.items():
        p = sub.add_parser(task, help=help_)
        p.add_argument("--config", help="key=value configuration file; flags override it")
        for dest, opt in _task_options(task).items():
            # values stay strings here: config_from_args parses them like a file's
            p.add_argument(opt.flag, dest=dest, action="append" if opt.repeat else None,
                           metavar=opt.choices and "{" + ",".join(map(str, opt.choices)) + "}",
                           help=opt.help)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The task's options from the config file, overridden by the flags given,
    every value read by its option's parser."""
    if not args.task:
        raise ConfigError("no task given; see --help")
    options = _task_options(args.task)
    raw = _load_config_file(args.config, options) if args.config else {}
    raw.update((dest, getattr(args, dest)) for dest in options if getattr(args, dest) is not None)
    return RunConfig(args.task, **{options[dest].field: options[dest].read(value)
                                   for dest, value in raw.items()})


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, report = run(config_from_args(args))
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
