"""The three benchmark workloads.

Each workload has a set-up, which builds its inputs from a *selection* of
recorded cases, and a pass: a fixed amount of work whose outputs are all
checked. A case is a seeded input (family parameters, a random section,
an annulus) identified by its kind and an index below ``POOL``; its
outputs were recorded once in ``reference.json``. ``--seed`` picks one
case of every kind, so the seed changes the inputs while every output
keeps a reference to be checked against. Each kind fixes its grid sizes
and call counts, so the work in a pass does not depend on the seed.

The package is reached only through the ``api`` table of ``spans``
(public names only) and, for whole ``nklab`` tasks, ``cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from neutralkahler.cli import DEFAULT_TOLERANCES as TOL

from checks import Checker, csv_digest, obj_digest

#: recorded cases per kind
POOL = 16
#: a control section must respond at least this many times above the
#: first-variation tolerance (criterion 5 uses the same margin, 1e-3)
CONTROL_FACTOR = 100.0
#: bound on rejection-sampling loops for family parameters
MAX_DRAWS = 64
#: a stationary-family draw is kept when its domain is at least this wide
MIN_DOMAIN = 0.25
#: degeneracy bound of acceptance criterion 7 (relative slope determinant)
DEGENERATE_RTOL = 1e-9
#: first variations of non-stationary sections are compared with the
#: reference at this absolute bound on |dA|/A (t-differences amplify the
#: area's roundoff by 1/t_step = 1e5)
FV_ABS = 1e-7


def selection(workload: "Workload", seed: int) -> dict[str, int]:
    """The recorded case of every kind that ``seed`` picks."""
    rng = random.Random(seed)
    return {kind: rng.randrange(POOL) for kind in workload.kinds}


def case_rng(api, workload: str, kind: str, case: int):
    """The Philox stream that defines one recorded case."""
    return api.rng_from_seed(zlib.crc32(f"{workload}/{kind}".encode()) * 1000 + case)


def _u(rng, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def draw_family(api, rng, geom, r_range):
    """Seeded admissible stationary family with a domain at least MIN_DOMAIN wide."""
    for _ in range(MAX_DRAWS):
        params = api.FamilyParams(
            a1=_u(rng, -0.5, 0.5),
            b1=_u(rng, -0.5, 0.5),
            a2=_u(rng, 0.3, 2.0) * (1 if rng.uniform() < 0.5 else -1),
            b2=_u(rng, 0.5, 2.5),
        )
        try:
            profile = api.stationary_family(geom, params, 1, r_range)
        except api.NeutralKahlerError:
            continue
        lo, hi = profile.domain
        if hi - lo >= MIN_DOMAIN:
            return params, profile
    raise api.NeutralKahlerError(f"no admissible family in {MAX_DRAWS} draws")


def draw_torus(api, rng):
    """Torus constants clear of the degenerate ratio C2 = 2 B2."""
    b2 = _u(rng, 0.5, 1.5)
    ratio = _u(rng, -1.5, 1.4) if rng.uniform() < 0.5 else _u(rng, 2.6, 5.0)
    return api.TorusFamily(b2, ratio * b2)


def gauss_nodes(grid) -> int:
    """Quadrature nodes of a grid, computed from its shape."""
    return len(grid.radial_nodes) * grid.n_theta


@dataclass
class Context:
    """What a pass needs besides its inputs."""

    api: object
    checker: Checker
    out_dir: Path
    seed: int


class Workload:
    name = ""
    kinds: tuple[str, ...] = ()

    def setup(self, api, picks: dict[str, int]):
        raise NotImplementedError

    def run(self, ctx: Context, inputs) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# grid_quadrature
# ---------------------------------------------------------------------------


@dataclass
class QuadCase:
    kind: str
    case: int
    role: str  # "stationary", "control" or "recorded"
    section: object
    grid: object
    bumps: list = field(default_factory=list)  # first variation along each


class GridQuadrature(Workload):
    """Area, first variation and Stokes quadratures on Gauss annulus grids."""

    name = "grid_quadrature"
    kinds = ("flat_family", "sphere_family", "torus", "polynomial", "lagrangian", "control")

    def setup(self, api, picks):
        cases = []
        flat, sphere = api.geometry_by_name("flat"), api.geometry_by_name("sphere")
        for kind in self.kinds:
            case = picks[kind]
            rng = case_rng(api, self.name, kind, case)
            if kind in ("flat_family", "sphere_family"):
                fam_geom, r_range = (flat, (0.3, 4.0)) if kind == "flat_family" else (sphere, (0.15, 0.95))
                _, profile = draw_family(api, rng, fam_geom, r_range)
                lo, hi = api.comfortable_range(profile)
                grid = api.AnnulusGrid(lo, hi, 16, 16)
                cases.append(QuadCase(kind, case, "stationary", profile.section(), grid,
                                      api.bump_basis(lo, hi)))
            elif kind == "torus":
                fam = draw_torus(api, rng)
                lo, hi = (0.3, 0.8) if case % 2 == 0 else (1.25, 2.5)
                grid = api.AnnulusGrid(lo, hi, 16, 16)
                cases.append(QuadCase(kind, case, "stationary", api.torus_section(fam), grid,
                                      api.bump_basis(lo, hi)))
            elif kind == "polynomial":
                section = api.random_polynomial_section(rng, sphere, scale=0.3)
                lo = _u(rng, 0.4, 0.9)
                hi = lo + _u(rng, 0.6, 1.4)
                grid = api.AnnulusGrid(lo, hi, 32, 32)
                cases.append(QuadCase(kind, case, "recorded", section, grid))
            elif kind == "lagrangian":
                section = api.random_lagrangian_section(rng, flat)
                grid = api.AnnulusGrid(0.6, 1.7, 24, 24)
                cases.append(QuadCase(kind, case, "recorded", section, grid))
            else:  # control
                r_range = (0.5, 2.5)
                profile = api.off_family_profile(rng, flat, r_range)
                grid = api.AnnulusGrid(*r_range, 16, 16)
                # F = G(R) e^{i theta}: only the k = 1 bumps keep the symmetry
                # and respond at first order
                cases.append(QuadCase(kind, case, "control", profile.section(), grid,
                                      api.bump_basis(*r_range, ks=(1,))))
        return cases

    def run(self, ctx, inputs):
        api, checker = ctx.api, ctx.checker
        for c in inputs:
            key = f"{c.kind}/{c.case}"
            with checker.operation(f"{key} area") as op:
                a_val = api.area(c.section, c.grid)
                op.matches(f"{key}/area", a_val)
            if c.bumps:
                with checker.operation(f"{key} first_variation") as op:
                    rel = [abs(api.first_variation(c.section, b, c.grid)) / a_val
                           for b in c.bumps]
                    if c.role == "stationary":
                        op.within("max |dA|/A", max(rel), TOL["first_variation_rel"])
                    else:
                        op.at_least("control max |dA|/A", max(rel),
                                    CONTROL_FACTOR * TOL["first_variation_rel"])
                        op.matches(f"{key}/dA_over_A", rel, abs_floor=FV_ABS)
            with checker.operation(f"{key} stokes_check") as op:
                interior, boundary = api.stokes_check(c.section, c.grid)
                if c.kind.endswith("_family"):
                    # 16 radial cells leave a quadrature error of up to 3e-5
                    # on the steep family profiles (it falls to 1e-8 at 64
                    # cells), so both sides are held to their reference
                    op.matches(f"{key}/stokes_boundary", float(boundary), abs_floor=1e-9)
                else:
                    op.within("stokes", abs(interior - boundary) / (1.0 + abs(interior)),
                              TOL["stokes"])
                op.matches(f"{key}/stokes_interior", float(interior), abs_floor=1e-9)


# ---------------------------------------------------------------------------
# grid_maps
# ---------------------------------------------------------------------------


@dataclass
class CliTask:
    kind: str
    case: int
    argv: list[str]
    nodes: int  # lattice nodes of the task's grid, computed from its shape
    rings: int = 0
    n_theta: int = 0
    artifact: str = ""


def _num(x: float) -> str:
    return repr(float(x))


class GridMaps(Workload):
    """Whole ``nklab`` tasks that write one row or segment per lattice node."""

    name = "grid_maps"
    kinds = ("residual_flat", "residual_torus", "classify", "export_obj", "export_csv")

    def setup(self, api, picks):
        tasks = []
        for kind in self.kinds:
            case = picks[kind]
            rng = case_rng(api, self.name, kind, case)
            report = ["--report", f"{kind}.json"]
            if kind in ("residual_flat", "classify"):
                sphere = kind == "classify"
                geom = api.geometry_by_name("sphere" if sphere else "flat")
                r_range = (0.15, 0.95) if sphere else (0.5, 2.5)
                params, profile = draw_family(api, rng, geom, r_range)
                lo, hi = api.comfortable_range(profile)
                n = 64
                grid = api.AnnulusGrid(lo, hi, n, n)
                argv = [
                    "residual" if kind == "residual_flat" else "classify",
                    "--geometry", geom.name,
                    "--A1", _num(params.a1), "--B1", _num(params.b1),
                    "--A2", _num(params.a2), "--B2", _num(params.b2),
                    "--rmin", _num(r_range[0]), "--rmax", _num(r_range[1]),
                    "--grid", f"{n}x{n}",
                ]
                artifact = ""
                if kind == "classify":
                    artifact = "classify.csv"
                    argv += ["--out", artifact]
                tasks.append(CliTask(kind, case, argv + report, len(grid.mesh_nodes()),
                                     artifact=artifact))
            else:
                fam = draw_torus(api, rng)
                n = 64 if kind != "export_csv" else 96
                bands = ((1.0, 0.05),) if kind == "residual_torus" else ()
                grid = api.AnnulusGrid(0.3, 2.5, n, n, bands)
                argv = [
                    "residual" if kind == "residual_torus" else "export",
                    "--B2", _num(fam.b2), "--C2", _num(fam.c2),
                    "--rmin", "0.3", "--rmax", "2.5", "--grid", f"{n}x{n}",
                ]
                artifact = ""
                if kind == "residual_torus":
                    argv += ["--exclude", "1.0:0.05"]
                else:
                    fmt = kind.split("_")[1]
                    artifact = f"torus.{fmt}"
                    argv += ["--format", fmt, "--out", artifact]
                nodes = grid.mesh_nodes()
                tasks.append(CliTask(kind, case, argv + report, len(nodes),
                                     rings=len({r for r, _ in nodes}), n_theta=n,
                                     artifact=artifact))
        return tasks

    def run(self, ctx, inputs):
        api, checker = ctx.api, ctx.checker
        if ctx.out_dir.exists():
            shutil.rmtree(ctx.out_dir)
        ctx.out_dir.mkdir(parents=True)
        os.environ["NKLAB_OUTPUT_DIR"] = str(ctx.out_dir)
        for t in inputs:
            key = f"{t.kind}/{t.case}"
            with checker.operation(f"{key} nklab {t.argv[0]}") as op:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = api.main(t.argv)
                op.equal("exit code", 0, code)
                report = json.loads((ctx.out_dir / f"{t.kind}.json").read_text(encoding="utf-8"))
                for check in report["checks"]:
                    op.within(check["name"], check["value"], check["tolerance"])
                values = report["values"]
                artifact = ctx.out_dir / t.artifact if t.artifact else None
                if t.argv[0] == "residual":
                    op.matches(f"{key}/skipped_nodes", values["skipped_nodes"])
                elif t.argv[0] == "classify":
                    op.equal("class total", t.nodes, sum(values["class_counts"].values()))
                    op.matches(f"{key}/class_counts", values["class_counts"])
                    op.equal("csv_rows", t.nodes, values["csv_rows"])
                    digest = csv_digest(artifact, absolute=("abs_residual",))
                    op.equal("csv rows read", t.nodes, digest["rows"])
                    op.equal("csv classes", values["class_counts"],
                             digest["columns"]["class"]["counts"])
                    op.matches_digest(f"{key}/csv", digest,
                                      {"abs_residual": TOL["residual_max"]})
                elif t.kind == "export_obj":
                    op.equal("segments", t.nodes, values["segments"])
                    digest, faces = obj_digest(artifact)
                    op.equal("obj vertices", 2 * t.nodes, digest["rows"])
                    op.equal("obj faces", t.rings * (t.n_theta - 1), faces)
                    op.matches_digest(f"{key}/obj", digest, {})
                else:
                    op.equal("segments", t.nodes, values["segments"])
                    digest = csv_digest(artifact)
                    op.equal("csv rows read", t.nodes, digest["rows"])
                    op.matches_digest(f"{key}/csv", digest, {})


# ---------------------------------------------------------------------------
# point_profile
# ---------------------------------------------------------------------------

#: point work per pass
AMBIENT_POINTS = 6000
JPLANE_EVERY = 10
EXACTNESS_EVERY = 25
DET_SECTIONS = 100
HOLOMORPHIC_SECTIONS = 4
RESIDUAL_POINTS = 25
#: profile work per pass
FAMILY_PROFILES = 8
PSI_PROFILES = 2
ODE_RADII = 9
SIGNATURE_RADII = (0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.1, 1.25, 1.6, 2.0, 2.5, 4.0)


@dataclass
class ProfileInputs:
    families: dict  # kind -> (case, geometry, r_range)
    degenerate: list  # (key, geometry, H, b2, r_range)
    reduction: list  # (key, geometry, (a, b))
    tori: list  # (key, TorusFamily)


class PointProfile(Workload):
    """Single-point checks and 1-D radial profiles; no 2-D grid."""

    name = "point_profile"
    kinds = ("flat_profiles", "sphere_profiles", "degenerate", "reduction", "torus")

    def setup(self, api, picks):
        flat, sphere = api.geometry_by_name("flat"), api.geometry_by_name("sphere")
        families = {}
        for kind, geom, r_range in (("flat_profiles", flat, (0.3, 4.0)),
                                    ("sphere_profiles", sphere, (0.15, 0.95))):
            families[kind] = (picks[kind], geom, r_range)

        case = picks["degenerate"]
        rng = case_rng(api, self.name, "degenerate", case)
        degenerate = []
        for geom, r_range in ((flat, (0.3, 2.5)), (sphere, (0.15, 0.9))):
            c = [float(v) for v in rng.normal(size=3) * 0.4]
            H = api.RadialFunction(
                lambda r, c=c: c[0] * r + c[1] * r * r + c[2] * r**3,
                lambda r, c=c: c[0] + 2 * c[1] * r + 3 * c[2] * r * r,
                lambda r, c=c: 2 * c[1] + 6 * c[2] * r,
            )
            degenerate.append((f"degenerate/{case}/{geom.name}", geom, H, _u(rng, 0.5, 2.0), r_range))

        case = picks["reduction"]
        rng = case_rng(api, self.name, "reduction", case)
        reduction = [(f"reduction/{case}/{geom.name}", geom, (_u(rng, 0.1, 0.2), _u(rng, 0.7, 0.9)))
                     for geom in (flat, sphere)]

        case = picks["torus"]
        rng = case_rng(api, self.name, "torus", case)
        tori = [(f"torus/{case}/{k}", draw_torus(api, rng)) for k in range(3)]
        return ProfileInputs(families, degenerate, reduction, tori)

    def run(self, ctx, inputs):
        self._points(ctx, inputs)
        self._profiles(ctx, inputs)

    def _points(self, ctx, inputs):
        api, checker = ctx.api, ctx.checker
        rng = api.rng_from_seed(ctx.seed)
        geoms = (api.geometry_by_name("flat"), api.geometry_by_name("sphere"))
        for i in range(AMBIENT_POINTS):
            geom = geoms[i % 2]
            with checker.operation("ambient point") as op:
                xi, eta = api.random_tangent_coords(rng)
                frame = api.ambient_frame(geom, api.TangentPoint(xi, eta))
                v1, v2 = api.random_plane(rng)
                op.within("calibration_floor", -api.calibration_gap(frame, v1, v2),
                          TOL["calibration_floor"])
                op.equal("signature", (2, 2), api.ambient_signature(frame))
                if i % JPLANE_EVERY == 0:
                    v1, v2 = api.j_invariant_plane(rng)
                    op.within("jplane_gap", abs(api.calibration_gap(frame, v1, v2)),
                              TOL["jplane_gap"])
                if i % EXACTNESS_EVERY == 0:
                    op.within("exactness", _exactness_defect(api, geom, xi, eta), TOL["exactness"])

        for i in range(DET_SECTIONS):
            geom = geoms[i % 2]
            with checker.operation("determinant oracle") as op:
                section = api.random_polynomial_section(rng, geom)
                compared = 0
                for _ in range(MAX_DRAWS):
                    xi = complex(*rng.normal(size=2))
                    sl = api.slopes(section, xi)
                    # a relative comparison means nothing at determinant zeros
                    if abs(sl.det_factor) < 1e-3 * (sl.lam**2 + abs(sl.sigma) ** 2 + 1e-6):
                        continue
                    d1 = sl.det_factor * geom.conformal_factor(xi) ** 2
                    d2 = api.pullback_determinant(section, xi)
                    op.within("det_oracle", abs(d1 - d2) / max(abs(d1), 1e-12), TOL["det_oracle"])
                    compared += 1
                    if compared == 2:
                        break
                op.equal("points compared", 2, compared)

        for i in range(HOLOMORPHIC_SECTIONS):
            geom = geoms[i % 2]
            r_range = (0.5, 2.0) if i % 2 == 0 else (0.3, 0.9)
            with checker.operation("holomorphic residual") as op:
                section = api.random_holomorphic_section(rng, geom, r_range)
                for _ in range(RESIDUAL_POINTS):
                    xi = _u(rng, *r_range) * complex(math.cos(t := _u(rng, 0.0, 2 * math.pi)),
                                                     math.sin(t))
                    try:
                        res = abs(api.el_residual(section, xi))
                    except api.SingularResidualError:
                        continue
                    op.within("residual_max", res, TOL["residual_max"])

    def _profiles(self, ctx, inputs):
        api, checker = ctx.api, ctx.checker
        for kind, (case, geom, r_range) in inputs.families.items():
            rng = case_rng(api, self.name, kind, case)
            profiles = []
            with checker.operation(f"{kind}/{case} draws") as op:
                for _ in range(FAMILY_PROFILES):
                    profiles.append(draw_family(api, rng, geom, r_range))
                op.matches(f"{kind}/{case}/domains", [list(p.domain) for _, p in profiles])
            for k, (params, profile) in enumerate(profiles):
                with checker.operation(f"{kind}/{case} ode_residuals") as op:
                    lo, hi = api.comfortable_range(profile)
                    worst = 0.0
                    for r in np.linspace(lo, hi, ODE_RADII):
                        r1, r2 = api.ode_residuals(geom, profile.H, profile.psi, float(r))
                        worst = max(worst, abs(r1), 0.0 if math.isnan(r2) else abs(r2))
                    op.within("ode_residual", worst, TOL["ode_residual"])
                if k >= PSI_PROFILES:
                    continue
                with checker.operation(f"{kind}/{case} psi_closed_form") as op:
                    lo, hi = profile.domain
                    quad = api.psi_closed_form(geom, profile.H, params.a2, params.b2, (lo, hi))
                    # the anchored integral shifts b2 by its value at the left end
                    shift = -params.b1**2 * math.exp(-2.0 * geom.radial_u(lo)) / lo**2
                    worst, values = 0.0, []
                    for r in np.linspace(lo, hi, 17):
                        r = float(r)
                        expect = profile.psi(r) - shift * math.exp(-2.0 * geom.radial_u(r))
                        values.append(quad(r))
                        worst = max(worst, abs(values[-1] - expect) / max(abs(expect), 1.0))
                    op.within("psi_quadrature", worst, TOL["psi_quadrature"])
                    op.matches(f"{kind}/{case}/{k}/psi", values)

        for key, geom, H, b2, r_range in inputs.degenerate:
            with checker.operation(key) as op:
                profile = api.degenerate_family(geom, H, b2, 1, r_range)
                op.matches(f"{key}/domain", list(profile.domain))
                section = profile.section()
                lo, hi = api.comfortable_range(profile)
                for r in np.linspace(lo, hi, 6):
                    for t in (0.0, 2.0, 4.0):
                        sl = api.slopes(section, float(r) * complex(math.cos(t), math.sin(t)))
                        rel = abs(sl.det_factor) / (1.0 + sl.lam**2 + abs(sl.sigma) ** 2)
                        op.within("degenerate determinant", rel, DEGENERATE_RTOL)

        for key, geom, (a, b) in inputs.reduction:
            with checker.operation(key) as op:
                h_lin = api.RadialFunction(lambda r: r, lambda r: 1.0, lambda r: 0.0)
                psi1 = api.RadialFunction(lambda r: r * r, lambda r: 2.0 * r)
                psi2 = api.reduction_of_order(
                    lambda r: api.ode_coefficients(geom, h_lin, r).p1, psi1, (a, b)
                )
                # psi2 must be a combination of R^2 and e^{-2u}, with the
                # e^{-2u} coefficient fixed by the anchored normalisation
                em2u = [math.exp(-2.0 * geom.radial_u(float(r))) for r in np.linspace(a, b, 25)]
                rs = np.linspace(a, b, 25)
                A = np.array([[e, r * r] for e, r in zip(em2u, rs)])
                y = np.array([psi2(float(r)) for r in rs])
                coeffs, *_ = np.linalg.lstsq(A, y, rcond=None)
                K = a * (1.0 + a * geom.radial_du(a)) * math.exp(-2.0 * geom.radial_u(a))
                defect = max(float(np.max(np.abs(A @ coeffs - y))), abs(coeffs[0] * K + 0.5))
                op.within("reduction of order", defect, TOL["ode_residual"])
                op.matches(f"{key}/psi2", [float(v) for v in y[::6]])

        for key, fam in inputs.tori:
            with checker.operation(key) as op:
                samples = api.signature_profile(fam, SIGNATURE_RADII)
                op.matches(f"{key}/signature",
                           [[s.classification.value, s.definite_sign] for s in samples])


def _exactness_defect(api, geom, xi: complex, eta: complex, h: float = 1e-5) -> float:
    """max |d(Theta) - Omega| by central differences of theta_form."""
    c0 = np.array([xi.real, xi.imag, eta.real, eta.imag])

    def theta_at(c):
        p = api.TangentPoint(complex(c[0], c[1]), complex(c[2], c[3]))
        return api.theta_form(geom, p).components

    grads = []
    for i in range(4):
        cp, cm = c0.copy(), c0.copy()
        cp[i] += h
        cm[i] -= h
        grads.append((theta_at(cp) - theta_at(cm)) / (2 * h))
    O4 = api.ambient_frame(geom, api.TangentPoint(xi, eta)).O4
    return max(abs(grads[a][b] - grads[b][a] - O4[a, b]) for a in range(4) for b in range(4))


WORKLOADS = {w.name: w for w in (GridQuadrature(), GridMaps(), PointProfile())}
