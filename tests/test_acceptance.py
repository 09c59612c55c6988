"""Acceptance gate: one test per top-level guarantee, at full sample sizes.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion. Every tolerance is pinned here explicitly.

Known red: the torus signature criterion asserts definite induced metrics
for all three parameter tuples, but the slope determinant of the quartic
family is ``(C2 - 2 B2)(1 - R^2)^2 / (1 + R^2)^2``, so the two tuples
with ``C2 < 2 B2`` are genuinely Lorentz away from the null meridians
(confirmed independently by the ambient pullback oracle). See README,
"Signature of the torus family".
"""

import math

import numpy as np

from neutralkahler import (
    AnnulusGrid,
    TangentPoint,
    TorusFamily,
    ambient_frame,
    ambient_signature,
    area,
    bump_basis,
    calibration_gap,
    el_residual,
    first_variations,
    induced_metric,
    ode_residuals,
    psi_closed_form,
    pullback_determinant,
    reduction_of_order,
    signature_profile,
    slopes,
    stokes_check,
    torus_section,
)
from neutralkahler.cli import RunConfig, run
from neutralkahler.errors import SingularResidualError
from neutralkahler.graphs import SurfaceClass
from neutralkahler.numerics import RadialFunction
from neutralkahler.rotsym import ode_coefficients
from neutralkahler.sampling import (
    geometry_by_name,
    j_invariant_plane,
    off_family_profile,
    random_family_profiles,
    random_holomorphic_section,
    random_lagrangian_section,
    random_plane,
    random_polynomial_section,
    random_tangent_coords,
    rng_from_seed,
)

GEOMETRIES = ("flat", "sphere")


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name} — {detail}")


def sampling_range(profile):
    """Profile domain, stood off from endpoints where Psi degenerates."""
    from neutralkahler.rotsym import comfortable_range

    return comfortable_range(profile)


def test_criterion_1_calibration_inequality():
    failures = []
    worst_floor = 0.0
    worst_jplane = 0.0
    for geometry in GEOMETRIES:
        geom = geometry_by_name(geometry)
        rng = rng_from_seed(101)
        for _ in range(5000):
            xi, eta = random_tangent_coords(rng)
            frame = ambient_frame(geom, TangentPoint(xi, eta))
            v1, v2 = random_plane(rng)
            gap = calibration_gap(frame, v1, v2)
            worst_floor = min(worst_floor, gap)
            if gap < -1e-10:
                failures.append(f"negative gap {gap:.2e} on {geometry}")
        for _ in range(500):
            xi, eta = random_tangent_coords(rng)
            frame = ambient_frame(geom, TangentPoint(xi, eta))
            v1, v2 = j_invariant_plane(rng)
            gap = abs(calibration_gap(frame, v1, v2))
            worst_jplane = max(worst_jplane, gap)
            if gap > 1e-10:
                failures.append(f"complex-plane gap {gap:.2e} on {geometry}")
    ok = not failures
    report(1, "calibration inequality",
           ok, f"min gap {worst_floor:.2e} >= -1e-10; max complex-plane gap "
               f"{worst_jplane:.2e} <= 1e-10 (10^4 planes, 10^3 complex planes)")
    assert ok, failures[:5]


def test_criterion_2_ambient_structure():
    failures = []
    worst_compat = 0.0
    worst_closed = 0.0
    for geometry in GEOMETRIES:
        geom = geometry_by_name(geometry)
        rng = rng_from_seed(102)
        for _ in range(1000):
            xi, eta = random_tangent_coords(rng)
            frame = ambient_frame(geom, TangentPoint(xi, eta))
            if ambient_signature(frame) != (2, 2):
                failures.append(f"signature defect at ({xi}, {eta}) on {geometry}")
            a, b = rng.normal(size=4), rng.normal(size=4)
            scale = max(1.0, float(np.max(np.abs(frame.G4))))
            ja, jb = frame.J4 @ a, frame.J4 @ b
            err = max(
                abs(frame.metric(ja, jb) - frame.metric(a, b)),
                abs(frame.metric(a, b) - frame.symplectic(ja, b)),
            ) / scale
            worst_compat = max(worst_compat, err)
            if err > 1e-9:
                failures.append(f"compatibility defect {err:.2e} on {geometry}")
        h = 1e-5
        for _ in range(30):
            xi, eta = random_tangent_coords(rng)
            c0 = np.array([xi.real, xi.imag, eta.real, eta.imag])

            def omega(c):
                return ambient_frame(
                    geom, TangentPoint(complex(c[0], c[1]), complex(c[2], c[3]))
                ).O4

            grads = []
            for i in range(4):
                cp, cm = c0.copy(), c0.copy()
                cp[i] += h
                cm[i] -= h
                grads.append((omega(cp) - omega(cm)) / (2.0 * h))
            for a_ in range(4):
                for b_ in range(a_ + 1, 4):
                    for c_ in range(b_ + 1, 4):
                        cyc = abs(grads[a_][b_, c_] + grads[b_][c_, a_] + grads[c_][a_, b_])
                        worst_closed = max(worst_closed, cyc)
                        if cyc > 1e-6:
                            failures.append(f"closedness defect {cyc:.2e} on {geometry}")
    ok = not failures
    report(2, "neutral ambient structure",
           ok, f"signature (2,2) at 10^3 points/geometry; compatibility "
               f"{worst_compat:.2e} <= 1e-9; d(Omega) {worst_closed:.2e} <= 1e-6")
    assert ok, failures[:5]


def test_criterion_3_determinant_oracle():
    failures = []
    worst = 0.0
    compared = 0
    for geometry in GEOMETRIES:
        geom = geometry_by_name(geometry)
        rng = rng_from_seed(103)
        for _ in range(250):
            section = random_polynomial_section(rng, geom)
            done = 0
            while done < 2:
                xi = complex(*rng.normal(size=2))
                sl = slopes(section, xi)
                # relative comparison is meaningless at determinant zeros
                if abs(sl.det_factor) < 1e-3 * (sl.lam**2 + abs(sl.sigma) ** 2 + 1e-6):
                    continue
                d1 = induced_metric(section, xi).determinant
                d2 = pullback_determinant(section, xi)
                rel = abs(d1 - d2) / max(abs(d1), 1e-12)
                worst = max(worst, rel)
                compared += 1
                done += 1
                if rel > 1e-6:
                    failures.append(f"determinant mismatch {rel:.2e} on {geometry}")
    ok = not failures
    report(3, "induced-metric determinant vs pullback oracle",
           ok, f"max relative gap {worst:.2e} <= 1e-6 over {compared} points "
               f"on 500 seeded sections")
    assert ok, failures[:5]


def test_criterion_4_holomorphic_graphs_are_stationary():
    failures = []
    worst_res = 0.0
    worst_fv = 0.0
    rng = rng_from_seed(104)
    cases = [("flat", (0.5, 2.0))] * 10 + [("sphere", (0.3, 0.9))] * 10
    for geometry, r_range in cases:
        geom = geometry_by_name(geometry)
        section = random_holomorphic_section(rng, geom, r_range)
        grid = AnnulusGrid(r_range[0], r_range[1], 12, 12)
        rs, ts = (c[::3].tolist() for c in grid._lattice())
        for r, t in zip(rs, ts):
            xi = r * complex(math.cos(t), math.sin(t))
            res = abs(el_residual(section, xi))
            worst_res = max(worst_res, res)
            if res > 1e-6:
                failures.append(f"residual {res:.2e} on {geometry}")
        a_val = area(section, grid)
        fvs = np.abs(first_variations(section, bump_basis(*r_range), grid))
        worst_fv = max(worst_fv, fvs.max() / a_val)
        failures += [f"first variation {fv:.2e} vs area {a_val:.2e}"
                     for fv in fvs[fvs > 1e-5 * a_val]]
    ok = not failures
    report(4, "holomorphic graphs are area-stationary",
           ok, f"20 sections: max residual {worst_res:.2e} <= 1e-6, "
               f"max |dA|/A {worst_fv:.2e} <= 1e-5")
    assert ok, failures[:5]


def test_criterion_5_stationary_families():
    failures = []
    worst_res = 0.0
    worst_fv = 0.0
    for geometry in GEOMETRIES:
        rng = rng_from_seed(105)
        for params, profile in random_family_profiles(rng, geometry, 25):
            section = profile.section()
            lo, hi = sampling_range(profile)
            grid = AnnulusGrid(lo, hi, 10, 12)
            rs, ts = (c[::4].tolist() for c in grid._lattice())
            for r, t in zip(rs, ts):
                xi = r * complex(math.cos(t), math.sin(t))
                try:
                    res = abs(el_residual(section, xi))
                except SingularResidualError:
                    continue
                worst_res = max(worst_res, res)
                if res > 1e-6:
                    failures.append(f"{geometry} {params}: residual {res:.2e}")
            a_val = area(section, grid)
            fvs = np.abs(first_variations(section, bump_basis(lo, hi), grid))
            worst_fv = max(worst_fv, fvs.max() / a_val)
            failures += [f"{geometry} {params}: |dA|/A {fv / a_val:.2e}"
                         for fv in fvs[fvs > 1e-5 * a_val]]

    # off-family sections must be caught by at least one bump
    missed = 0
    worst_detect = math.inf
    rng = rng_from_seed(1050)
    for k in range(20):
        geometry = GEOMETRIES[k % 2]
        geom = geometry_by_name(geometry)
        r_range = (0.4, 1.6) if geometry == "sphere" else (0.5, 2.5)
        profile = off_family_profile(rng, geom, r_range)
        section = profile.section()
        grid = AnnulusGrid(r_range[0], r_range[1], 12, 12)
        a_val = area(section, grid)
        best = np.abs(first_variations(section, bump_basis(*r_range), grid)).max() / a_val
        worst_detect = min(worst_detect, best)
        if best <= 1e-3:
            missed += 1
            failures.append(f"off-family section {k} undetected (best {best:.2e})")
    ok = not failures
    report(5, "closed stationary families",
           ok, f"50 tuples: max residual {worst_res:.2e} <= 1e-6, max |dA|/A "
               f"{worst_fv:.2e} <= 1e-5; 20 off-family sections all detected "
               f"(weakest bump response {worst_detect:.2e} > 1e-3)")
    assert ok, failures[:5]


def test_criterion_6_ode_machinery():
    failures = []

    worst_ode = 0.0
    for geometry in GEOMETRIES:
        geom = geometry_by_name(geometry)
        rng = rng_from_seed(106)
        for params, profile in random_family_profiles(rng, geometry, 10):
            lo, hi = sampling_range(profile)
            for r in np.linspace(lo, hi, 9):
                r1, r2 = ode_residuals(geom, profile.H, profile.psi, float(r))
                for val in (r1, r2):
                    if math.isnan(val):
                        continue
                    worst_ode = max(worst_ode, abs(val))
                    if abs(val) > 1e-6:
                        failures.append(f"{geometry} ODE residual {val:.2e} at R={r:.3f}")

    # reduction of order recovers the conformal solution (modulo an R^2
    # multiple and the anchored-quadrature normalisation)
    worst_red = 0.0
    h_lin = RadialFunction(lambda r: r, lambda r: 1.0, lambda r: 0.0)
    for geometry in GEOMETRIES:
        geom = geometry_by_name(geometry)
        a, b = 0.1, 0.9
        psi1 = RadialFunction(lambda r: r * r, lambda r: 2.0 * r)

        def p1(r):
            return ode_coefficients(geom, h_lin, r).p1

        psi2 = reduction_of_order(p1, psi1, (a, b), n_quad=512)
        em2u = lambda r: np.exp(-2.0 * geom.radial_u(r))
        rs = np.linspace(a, b, 25)
        A = np.array([[em2u(r), r * r] for r in rs])
        y = np.array([psi2(float(r)) for r in rs])
        coeffs, *_ = np.linalg.lstsq(A, y, rcond=None)
        resid = float(np.max(np.abs(A @ coeffs - y)))
        K = a * (1.0 + a * geom.radial_du(a)) * em2u(a)
        err = max(resid, abs(coeffs[0] * K + 0.5))
        worst_red = max(worst_red, err)
        if err > 1e-6:
            failures.append(f"reduction-of-order defect {err:.2e} on {geometry}")

    # quadrature solution matches the closed-form family
    worst_psi = 0.0
    for geometry, r_range in (("flat", (0.1, 10.0)), ("sphere", (0.1, 0.9))):
        geom = geometry_by_name(geometry)
        a1, b1, a2, b2 = 0.3, 0.8, 1.1, 0.6
        em2u = lambda r: np.exp(-2.0 * geom.radial_u(r))
        H = RadialFunction(lambda r: a1 * r + b1 * em2u(r) / r)
        psi = psi_closed_form(geom, H, a2, b2, r_range, n_quad=1024)
        shift = -b1 * b1 * em2u(r_range[0]) / r_range[0] ** 2
        for r in np.linspace(r_range[0], r_range[1], 33):
            r = float(r)
            exact = a2 * r * r + b2 * em2u(r) - b1 * b1 * em2u(r) ** 2 / (r * r)
            expect = exact - shift * em2u(r)
            rel = abs(psi(r) - expect) / max(abs(expect), 1.0)
            worst_psi = max(worst_psi, rel)
            if rel > 1e-6:
                failures.append(f"psi quadrature defect {rel:.2e} on {geometry} at R={r:.3f}")

    ok = not failures
    report(6, "stationarity ODE machinery",
           ok, f"max ODE residual {worst_ode:.2e} <= 1e-6; reduction-of-order "
               f"defect {worst_red:.2e} <= 1e-6; quadrature-vs-closed-form "
               f"defect {worst_psi:.2e} <= 1e-6")
    assert ok, failures[:5]


def test_criterion_7_degenerate_families():
    from neutralkahler import degenerate_family

    failures = []
    worst = 0.0
    rng = rng_from_seed(107)
    cases = []
    for k in range(9):
        geometry = GEOMETRIES[k % 2]
        c = rng.normal(size=3) * 0.4
        b2 = rng.uniform(0.5, 2.0)
        H = RadialFunction(
            lambda r, c=c: c[0] * r + c[1] * r * r + c[2] * r**3,
            lambda r, c=c: c[0] + 2 * c[1] * r + 3 * c[2] * r * r,
            lambda r, c=c: 2 * c[1] + 6 * c[2] * r,
        )
        cases.append((geometry, H, b2))

    for geometry, H, b2 in cases:
        geom = geometry_by_name(geometry)
        r_range = (0.15, 0.9) if geometry == "sphere" else (0.3, 2.5)
        profile = degenerate_family(geom, H, b2, 1, r_range)
        section = profile.section()
        lo, hi = sampling_range(profile)
        grid = AnnulusGrid(lo, hi, 8, 8)
        for r, t in zip(*(c.tolist() for c in grid._lattice())):
            xi = r * complex(math.cos(t), math.sin(t))
            sl = slopes(section, xi)
            rel = abs(sl.det_factor) / (1.0 + sl.lam**2 + abs(sl.sigma) ** 2)
            worst = max(worst, rel)
            if rel > 1e-9:
                failures.append(f"{geometry} degenerate defect {rel:.2e}")

    # the degenerate torus of the quartic family
    section = torus_section(TorusFamily(1.0, 2.0))
    grid = AnnulusGrid(0.3, 3.0, 8, 8)
    for r, t in zip(*(c.tolist() for c in grid._lattice())):
        xi = r * complex(math.cos(t), math.sin(t))
        sl = slopes(section, xi)
        rel = abs(sl.det_factor) / (1.0 + sl.lam**2 + abs(sl.sigma) ** 2)
        worst = max(worst, rel)
        if rel > 1e-9:
            failures.append(f"degenerate torus defect {rel:.2e}")

    ok = not failures
    report(7, "degenerate families",
           ok, f"max relative determinant {worst:.2e} <= 1e-9 over 10 profiles")
    assert ok, failures[:5]


def test_criterion_8_torus_signature_structure():
    """Null meridians plus the definite/sign-swap classification claims.

    The nullity at R = 1 holds for every admissible tuple. The definite
    classification holds only for C2 > 2 B2; for C2 < 2 B2 the metric is
    Lorentz on both sides of the meridians (determinant proportional to
    C2 - 2 B2), so the (1,0) and (2,1) sub-checks fail by mathematics,
    not by numerics. They are asserted anyway; see the module docstring.
    """
    failures = []
    worst_null = 0.0
    inner_signs = {}
    for b2, c2 in ((1.0, 0.0), (1.0, 5.0), (2.0, 1.0)):
        fam = TorusFamily(b2, c2)
        sl = slopes(torus_section(fam), complex(1.0))
        nullity = abs(sl.sigma) + abs(sl.lam)
        worst_null = max(worst_null, nullity)
        if nullity > 1e-8:
            failures.append(f"({b2},{c2}): meridian not null ({nullity:.2e})")

        samples = signature_profile(fam, [0.4, 0.7, 1.4, 2.5])
        if not all(s.classification is SurfaceClass.RIEMANNIAN for s in samples):
            got = {s.classification.value for s in samples}
            failures.append(f"({b2},{c2}): not definite off the meridians (got {got})")
            continue
        inner = {s.definite_sign for s in samples if s.r < 1.0}
        outer = {s.definite_sign for s in samples if s.r > 1.0}
        if len(inner) != 1 or len(outer) != 1 or inner == outer:
            failures.append(f"({b2},{c2}): sides not oppositely definite")
            continue
        inner_signs[math.copysign(1.0, c2 - 2.0 * b2)] = next(iter(inner))
    if set(inner_signs) != {1.0, -1.0} or len(set(inner_signs.values())) != 2:
        failures.append(
            f"definite-side assignment does not swap with sign(C2 - 2 B2): {inner_signs}"
        )

    ok = not failures
    report(8, "torus null/signature structure",
           ok, f"meridian nullity {worst_null:.2e} <= 1e-8; "
               + ("definite with swapping signs"
                  if ok else f"definite-classification defects: {failures}"))
    assert ok, failures


def test_criterion_9_exactness_stokes():
    failures = []
    worst = 0.0
    worst_lag = 0.0
    rng = rng_from_seed(109)
    for k in range(20):
        geometry = GEOMETRIES[k % 2]
        geom = geometry_by_name(geometry)
        section = random_polynomial_section(rng, geom, scale=0.3)
        r_lo = rng.uniform(0.4, 0.9)
        r_hi = r_lo + rng.uniform(0.6, 1.4)
        grid = AnnulusGrid(r_lo, r_hi, 20, 24)
        interior, boundary = stokes_check(section, grid)
        rel = abs(interior - boundary) / (1.0 + abs(interior))
        worst = max(worst, rel)
        if rel > 1e-6:
            failures.append(f"stokes defect {rel:.2e} on {geometry}")
    for k in range(6):
        geometry = GEOMETRIES[k % 2]
        geom = geometry_by_name(geometry)
        section = random_lagrangian_section(rng, geom)
        grid = AnnulusGrid(0.6, 1.7, 20, 24)
        interior, boundary = stokes_check(section, grid)
        worst_lag = max(worst_lag, abs(interior), abs(boundary))
        if abs(interior) > 1e-8 or abs(boundary) > 1e-8:
            failures.append(
                f"lagrangian sides not vanishing ({interior:.2e}, {boundary:.2e})"
            )
    ok = not failures
    report(9, "exactness of the symplectic form",
           ok, f"max |interior - boundary| / (1+|interior|) {worst:.2e} <= 1e-6 "
               f"on 20 sections; lagrangian sides {worst_lag:.2e} <= 1e-8")
    assert ok, failures[:5]


def test_criterion_10_cli_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("NKLAB_OUTPUT_DIR", str(tmp_path))
    cfg = dict(task="verify", geometry="sphere", suite="all", samples=120, seed=42,
               report="d.json")
    _, first = run(RunConfig(**cfg))
    _, second = run(RunConfig(**cfg))
    first.pop("timestamp")
    second.pop("timestamp")
    ok = first == second
    report(10, "deterministic reports", ok,
           "identical configuration and seed give identical reports "
           "(timestamp excluded)")
    assert ok
