"""TS^2 as the space of oriented affine lines of Euclidean 3-space.

With the round metric on the base, a tangent vector ``(xi, eta)`` is read
as an oriented line: the base coordinate fixes the direction through the
inverse stereographic parametrisation

    dir(xi) = (xi + xibar, -i (xi - xibar), 1 - xi xibar) / (1 + xi xibar),

anchored so that ``xi = 0`` is the oriented z-axis, and the fibre
coordinate is pushed forward to the perpendicular foot of the line,

    foot = 2 Re( eta * d dir / d xi ),

which is automatically orthogonal to the direction. Rotation of the
plane coordinate, ``(xi, eta) -> (xi e^{iC}, eta e^{iC})``, corresponds
to rotating the line by C about the z-axis.

A graph section over an annulus is a line congruence; ``export_congruence``
writes it out as ruled-surface strips (OBJ) or a plain node table (CSV).

The closed rotationally symmetric area-stationary congruences form the
two-parameter torus family

    F = +- i sqrt(B2 + C2 R^2 + B2 R^4) e^{i theta},   B2 >= 0, C2 >= -2 B2,

whose slope determinant is ``(C2 - 2 B2) (1 - R^2)^2 / (1 + R^2)^2``: the
meridian circles at ``R = 1`` are totally null, the rest of the torus is
definite for ``C2 > 2 B2`` (opposite signs on the two sides of ``R = 1``),
lorentzian for ``C2 < 2 B2``, and degenerate exactly when ``C2 = 2 B2``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .ambient import TangentPoint, sphere_geometry
from .errors import AdmissibilityError, ChartError, DomainError
from .graphs import GraphSection, SurfaceClass, _slopes_on
from .numerics import AnnulusGrid, RadialFunction
from .rotsym import RotSymProfile

__all__ = [
    "OrientedLine",
    "TorusFamily",
    "SignatureSample",
    "torus_section",
    "torus_profile",
    "signature_profile",
    "to_oriented_line",
    "export_congruence",
    "direction_of",
]


@dataclass(frozen=True)
class OrientedLine:
    """An oriented affine line: unit direction plus perpendicular foot."""

    direction: np.ndarray
    foot: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        f = np.asarray(self.foot, dtype=float)
        if abs(np.linalg.norm(d) - 1.0) > 1e-12:
            raise DomainError(f"direction is not unit: |d| = {np.linalg.norm(d)}")
        if abs(float(d @ f)) > 1e-10:
            raise DomainError(f"foot is not perpendicular to direction: d.f = {d @ f:.3e}")
        d.flags.writeable = False
        f.flags.writeable = False
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "foot", f)

    def point(self, s: float) -> np.ndarray:
        return self.foot + s * self.direction


def direction_of(xi: complex) -> np.ndarray:
    """Inverse stereographic direction of the base coordinate."""
    r2 = (xi * xi.conjugate()).real
    s = 1.0 + r2
    return np.array([2.0 * xi.real / s, 2.0 * xi.imag / s, (1.0 - r2) / s])


def _ddirection(xi: complex) -> np.ndarray:
    """Componentwise holomorphic derivative of ``direction_of``."""
    xb = xi.conjugate()
    s = 1.0 + (xi * xb).real
    return np.array(
        [
            (1.0 - xb * xb) / s**2,
            -1j * (1.0 + xb * xb) / s**2,
            -2.0 * xb / s**2,
        ]
    )


def to_oriented_line(p: TangentPoint) -> OrientedLine:
    """Read a point of TS^2 as an oriented line of 3-space."""
    if not (cmath.isfinite(p.xi) and cmath.isfinite(p.eta)):
        raise ChartError(f"point ({p.xi}, {p.eta}) is outside the finite chart")
    direction = direction_of(p.xi)
    foot = 2.0 * (p.eta * _ddirection(p.xi)).real
    return OrientedLine(direction=direction, foot=foot)


@dataclass(frozen=True)
class TorusFamily:
    """Parameters of the closed stationary torus congruences."""

    b2: float
    c2: float
    branch: int = 1

    def __post_init__(self):
        if self.b2 < 0.0:
            raise AdmissibilityError(f"need B2 >= 0, got {self.b2}")
        if self.c2 < -2.0 * self.b2:
            raise AdmissibilityError(f"need C2 >= -2 B2, got C2={self.c2}, B2={self.b2}")
        if self.branch not in (1, -1):
            raise AdmissibilityError(f"branch must be +1 or -1, got {self.branch}")

    def psi(self) -> RadialFunction:
        b2, c2 = self.b2, self.c2
        return RadialFunction(
            lambda r: b2 + c2 * r * r + b2 * r**4,
            lambda r: 2.0 * c2 * r + 4.0 * b2 * r**3,
            lambda r: 2.0 * c2 + 12.0 * b2 * r * r,
        )


def torus_profile(fam: TorusFamily, r_range: tuple[float, float] = (1e-6, 1e6)) -> RotSymProfile:
    """The torus congruence as a rotationally symmetric profile (H = 0)."""
    return RotSymProfile(
        geometry=sphere_geometry(),
        H=RadialFunction.constant(0.0),
        psi=fam.psi(),
        branch=fam.branch,
        domain=r_range,
    )


def torus_section(fam: TorusFamily) -> GraphSection:
    """Sphere-geometry graph section ``F = branch * i sqrt(Psi(R)) e^{i theta}``.

    Defined for all ``R in (0, oo)`` and extendable through the poles; the
    admissibility constraints keep ``Psi >= 0`` everywhere.
    """
    return torus_profile(fam).section()


class SignatureSample(NamedTuple):
    """Classification of the torus metric at one radius.

    ``definite_sign`` is +1 / -1 for positive / negative definite points
    and ``None`` off the riemannian class.
    """

    r: float
    classification: SurfaceClass
    definite_sign: Optional[int]


def signature_profile(fam: TorusFamily, r_samples: Sequence[float]) -> list[SignatureSample]:
    """Classify the induced metric of the torus at the sampled radii.

    On the riemannian (definite) stretches the sign of the metric is the
    sign of ``-lam``: both flip across the null meridians at ``R = 1``.
    """
    rs = np.asarray(r_samples, dtype=float)
    sl = _slopes_on(torus_section(fam), rs.astype(complex))
    signs = np.where(-sl.lam > 0.0, 1, -1).tolist()
    return [
        SignatureSample(r, cls, sign if cls is SurfaceClass.RIEMANNIAN else None)
        for r, cls, sign in zip(rs.tolist(), sl.classify().tolist(), signs)
    ]


def _segment_vertices(
    section: GraphSection, grid: AnnulusGrid, half_length: float
) -> tuple[list[tuple[float, float]], list[np.ndarray], list[np.ndarray]]:
    nodes = grid.mesh_nodes()
    starts, ends = [], []
    for r, t in nodes:
        xi = r * complex(math.cos(t), math.sin(t))
        line = to_oriented_line(TangentPoint(xi, section.F(xi)))
        starts.append(line.point(-half_length))
        ends.append(line.point(half_length))
    return nodes, starts, ends


def export_congruence(
    section: GraphSection,
    grid: AnnulusGrid,
    half_length: float,
    fmt: str,
    path,
) -> int:
    """Write the line congruence of a section over the grid lattice.

    OBJ: two vertices per line (the segment ends) and counter-clockwise
    quads joining angular neighbours at each radius, giving ruled-surface
    ribbons; an ``n_r x n_theta`` lattice yields ``2 n_r n_theta`` vertices
    and ``n_r (n_theta - 1)`` quads. CSV: one row per node with direction
    and foot in round-trip decimal form. Returns the number of segments.
    """
    if half_length <= 0.0:
        raise DomainError(f"half_length must be positive, got {half_length}")
    fmt = fmt.lower()
    if fmt not in ("obj", "csv"):
        raise DomainError(f"unknown export format '{fmt}'")
    if not section.geometry.name.startswith("sphere"):
        raise DomainError(
            "line congruences exist over the round sphere only "
            f"(section geometry is '{section.geometry.name}')"
        )

    nodes, starts, ends = _segment_vertices(section, grid, half_length)

    if fmt == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("R,theta,dx,dy,dz,fx,fy,fz\n")
            for (r, t), s, e in zip(nodes, starts, ends):
                d = [float(x) for x in (e - s) / (2.0 * half_length)]
                f = [float(x) for x in 0.5 * (s + e)]
                fh.write(
                    f"{r!r},{t!r},{d[0]!r},{d[1]!r},{d[2]!r},{f[0]!r},{f[1]!r},{f[2]!r}\n"
                )
        return len(nodes)

    # group nodes by radius ring to build angular strips
    rings: dict[float, list[int]] = {}
    for idx, (r, _t) in enumerate(nodes):
        rings.setdefault(r, []).append(idx)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# line congruence: {len(nodes)} segments\n")
        for s, e in zip(starts, ends):
            fh.write(f"v {float(s[0])!r} {float(s[1])!r} {float(s[2])!r}\n")
            fh.write(f"v {float(e[0])!r} {float(e[1])!r} {float(e[2])!r}\n")
        for ring in rings.values():
            for i, j in zip(ring[:-1], ring[1:]):
                # vertex ids are 1-based; node k owns vertices 2k+1, 2k+2
                a, b = 2 * i + 1, 2 * i + 2
                c, d = 2 * j + 1, 2 * j + 2
                fh.write(f"f {a} {c} {d} {b}\n")
    return len(nodes)
