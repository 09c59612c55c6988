"""Seeded random data for verification sweeps.

Everything here is driven by an explicit counter-based generator
(`numpy`'s Philox), so a seed fully determines every sweep; the CLI and
the test-suite share these constructors. Each object takes its normal
draws as one block (a ``(2, 4)`` pair of vectors, a ``(terms, 2)`` table
of coefficients), which holds the same numbers in the same order as one
small draw after another, at a fraction of the per-call cost.
"""

from __future__ import annotations

import math
import numpy as np

from .ambient import (
    GEOMETRIES,
    ROUND_SPHERE,
    ConformalGeometry,
    J4_MATRIX,
    _plane_extent,
    radial_geometry,
)
from .errors import DomainError, NeutralKahlerError
from .graphs import GraphSection, lagrangian_section, polynomial_section, slopes
from .numerics import RadialFunction, _polar
from .rotsym import FamilyParams, RotSymProfile, _radial_sum, stationary_family

__all__ = [
    "rng_from_seed",
    "random_tangent_coords",
    "random_plane",
    "j_invariant_plane",
    "random_polynomial_section",
    "random_holomorphic_section",
    "random_lagrangian_section",
    "random_radial_geometry",
    "random_family_profiles",
    "off_family_profile",
    "geometry_by_name",
]

#: bound on redraws of ``random_plane``
MAX_PLANE_DRAWS = 64
#: bound on the draws behind one profile of ``random_family_profiles``
MAX_FAMILY_DRAWS = 64
#: bound on the draws of ``random_holomorphic_section``
MAX_HOLOMORPHIC_DRAWS = 64


def rng_from_seed(seed: int) -> np.random.Generator:
    """Philox (counter-based) generator; one seed, one reproducible stream."""
    return np.random.Generator(np.random.Philox(int(seed)))


def geometry_by_name(name: str) -> ConformalGeometry:
    """The geometry of the row ``name`` of ``ambient.GEOMETRIES``."""
    if name not in GEOMETRIES:
        raise DomainError(f"unknown geometry '{name}'; the known ones are {tuple(GEOMETRIES)}")
    return GEOMETRIES[name][0]()


def random_tangent_coords(rng: np.random.Generator) -> tuple[complex, complex]:
    """A tangent point ``(xi, eta)``: standard normal parts, ``eta`` scaled by 3/2."""
    xr, xi_, er, ei = rng.normal(size=4).tolist()
    return complex(xr, xi_), complex(er, ei) * 3.0 / 2.0


def _unit(v: np.ndarray) -> np.ndarray:
    return v / math.sqrt(v.dot(v))  # np.linalg.norm computes the same, with more overhead


def random_plane(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two unit 4-vectors, redrawn until the pair's singular values satisfy
    ``s_min > 1e-3 s_max``."""
    for _ in range(MAX_PLANE_DRAWS):
        V = rng.normal(size=(2, 4))
        s_max, s_min = _plane_extent(V)
        if s_min > 1e-3 * s_max:
            return _unit(V[0]), _unit(V[1])
    raise DomainError(f"no independent pair of 4-vectors in {MAX_PLANE_DRAWS} draws")


def j_invariant_plane(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A plane spanned by ``v1`` and ``a v1 + b J v1`` (complex line)."""
    x = rng.normal(size=6)
    v1 = _unit(x[:4])
    a, b = x[4:].tolist()
    if abs(b) < 1e-2:
        b = math.copysign(1.0, b if b != 0.0 else 1.0)
    return v1, _unit(a * v1 + b * (J4_MATRIX @ v1))


def random_polynomial_section(
    rng: np.random.Generator, geometry: ConformalGeometry, scale: float = 0.5
) -> GraphSection:
    """Random smooth section: cubic complex polynomial in ``xi`` and ``xibar``."""
    keys = [(m, n) for m in range(4) for n in range(4 - m)]
    draws = rng.normal(size=(len(keys), 2)).tolist()
    coeffs = {(m, n): complex(*c) * scale / (1.0 + m + n) for (m, n), c in zip(keys, draws)}
    return polynomial_section(geometry, coeffs)


def random_holomorphic_section(
    rng: np.random.Generator,
    geometry: ConformalGeometry,
    r_range: tuple[float, float],
) -> GraphSection:
    """Holomorphic section (``F`` a polynomial in ``xi`` only) whose ``lam``
    keeps one sign, at least 0.05 away from zero, over the annulus
    ``r_range`` (probed on 65 radii x 64 angles), in ``MAX_HOLOMORPHIC_DRAWS`` draws."""
    lo, hi = r_range
    probes = _polar(
        np.linspace(lo, hi, 65)[:, None], np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    )
    for _ in range(MAX_HOLOMORPHIC_DRAWS):
        c0 = 0.5 + rng.uniform(0.0, 1.5)
        draws = rng.normal(size=(3, 2)).tolist()
        perturb = {(k, 0): complex(*c) * 0.05 / k for k, c in zip(range(2, 5), draws)}
        coeffs = {(1, 0): 1j * c0, **{k: 1j * c0 * v for k, v in perturb.items()}}
        section = polynomial_section(geometry, coeffs)
        lam = slopes(section, probes).lam
        if np.all(lam > 0.05) or np.all(lam < -0.05):
            return section
    raise DomainError(f"no sign-definite holomorphic section in {MAX_HOLOMORPHIC_DRAWS} draws")


def random_lagrangian_section(
    rng: np.random.Generator, geometry: ConformalGeometry
) -> GraphSection:
    """Gradient section of a random cubic real potential (``lam = 0`` identically)."""
    keys = [(m, n) for m in range(1, 4) for n in range(m + 1)]
    draws = rng.normal(size=(len(keys), 2)).tolist()
    potential = {(m, n): complex(*c) * 0.4 / (1.0 + m + n) for (m, n), c in zip(keys, draws)}
    return lagrangian_section(geometry, potential)


def random_radial_geometry(rng: np.random.Generator) -> ConformalGeometry:
    """A rotationally symmetric geometry with a Gaussian conformal bump."""
    a = rng.uniform(-0.4, 0.4)
    s2 = rng.uniform(1.0, 4.0)

    def u(r):
        return a * np.exp(-r * r / s2)

    def du(r):
        return -2.0 * a * r / s2 * np.exp(-r * r / s2)

    def d2u(r):
        return (-2.0 * a / s2 + 4.0 * a * r * r / s2**2) * np.exp(-r * r / s2)

    return radial_geometry(f"radial-bump(a={a:.3f},s2={s2:.3f})", RadialFunction(u, du, d2u))


def _admissible_family(
    rng: np.random.Generator, geom: ConformalGeometry, r_range: tuple[float, float]
) -> tuple[FamilyParams, RotSymProfile]:
    for _ in range(MAX_FAMILY_DRAWS):
        params = FamilyParams(
            a1=rng.uniform(-0.5, 0.5),
            b1=rng.uniform(-0.5, 0.5),
            a2=rng.uniform(0.3, 2.0) * (1 if rng.uniform() < 0.5 else -1),
            b2=rng.uniform(0.5, 2.5),
        )
        try:
            profile = stationary_family(geom, params, 1, r_range)
        except NeutralKahlerError:
            continue
        lo, hi = profile.domain
        if hi - lo >= 0.25:
            return params, profile
    raise DomainError(f"no admissible family in {MAX_FAMILY_DRAWS} draws on {geom.name}")


def random_family_profiles(
    rng: np.random.Generator, geometry: str, count: int
) -> list[tuple[FamilyParams, RotSymProfile]]:
    """Admissible stationary families (branch +1) with their trimmed profiles.

    Constants are redrawn until the profile's domain inside the family draw
    range of the geometry's row in ``ambient.GEOMETRIES`` is at least 0.25
    wide; a draw the family constructor rejects is skipped. Raises
    ``DomainError`` when one profile takes more than ``MAX_FAMILY_DRAWS`` draws.
    """
    geom, r_range = geometry_by_name(geometry), GEOMETRIES[geometry][1]
    return [_admissible_family(rng, geom, r_range) for _ in range(count)]


def off_family_profile(
    rng: np.random.Generator,
    geometry: ConformalGeometry,
    r_range: tuple[float, float],
) -> RotSymProfile:
    """A rotationally symmetric graph that is *not* area-stationary.

    ``Psi`` is a positive even polynomial chosen outside the stationary
    family (the quartic coefficient breaks the closed form on both the
    flat and the round geometries). Over the round sphere, the geometry whose
    ``inverse_factor`` is ``ambient.ROUND_SPHERE`` whatever its name, a draw
    near the symmetric torus pattern ``c2 = c0`` moves to ``c2 = 1.8 c0``.
    """
    c0 = rng.uniform(0.5, 1.5)
    c1 = rng.uniform(0.2, 1.0)
    c2 = rng.uniform(0.5, 1.5)
    if geometry.inverse_factor == ROUND_SPHERE and abs(c2 - c0) < 0.3 * c0:
        c2 = c0 * 1.8  # keep clear of the symmetric torus pattern
    return RotSymProfile(
        geometry=geometry,
        H=RadialFunction.constant(0.0),
        psi=_radial_sum(((c0, 0, 0), (c1, 2, 0), (c2, 4, 0))),
        branch=1,
        domain=r_range,
    )
