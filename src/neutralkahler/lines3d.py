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

The line maps are elementwise: ``direction_of`` and the foot map take an
array of base points and return one more axis, the last one xyz (a
3-vector at one point). A graph section over an annulus is a line
congruence; ``export_congruence`` evaluates the section once on the whole
lattice and writes it out as ruled-surface strips (OBJ) or a plain node
table (CSV).

The closed rotationally symmetric area-stationary congruences form the
two-parameter torus family

    F = +- i sqrt(B2 + C2 R^2 + B2 R^4) e^{i theta},   B2 >= 0, C2 >= -2 B2,

whose slope determinant is ``(C2 - 2 B2) (1 - R^2)^2 / (1 + R^2)^2``: the
meridian circles at ``R = 1`` are totally null, the rest of the torus is
definite for ``C2 > 2 B2`` (opposite signs on the two sides of ``R = 1``),
lorentzian for ``C2 < 2 B2``, and degenerate exactly when ``C2 = 2 B2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .ambient import ROUND_SPHERE, TangentPoint, sphere_geometry
from .errors import AdmissibilityError, DomainError
from .graphs import GraphSection, SurfaceClass, slopes
from .numerics import AnnulusGrid, RadialFunction, _first_where, _polar, _write_rows
from .rotsym import RotSymProfile, _even_quartic

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
        _check_lines(d, f)
        d.flags.writeable = f.flags.writeable = False
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "foot", f)

    def point(self, s: float) -> np.ndarray:
        return self.foot + s * self.direction


def _check_lines(d: np.ndarray, f: np.ndarray, rs=None, ts=None) -> None:
    """Raise :class:`DomainError` at the first of the stacked lines (last axis
    xyz) whose direction is not unit (1e-12) or whose foot is not perpendicular
    to it (1e-10); the lattice radii and angles ``rs``, ``ts`` name its node."""
    d, f = d.reshape(-1, 3), f.reshape(-1, 3)
    norm, dot = np.linalg.norm(d, axis=-1), np.sum(d * f, axis=-1)
    # a non-finite entry makes the norm or the dot product nan or infinite
    ok = (np.abs(norm - 1.0) <= 1e-12) & (np.abs(dot) <= 1e-10)
    if not ok.all():
        k, norm0, dot0 = _first_where(~ok, norm, dot)
        where = "" if rs is None else f" at node (R={rs[k]:.6g}, theta={ts[k]:.6g})"
        raise DomainError(f"not a unit direction with a perpendicular foot{where}: "
                          f"|d| = {norm0!r}, d.f = {dot0:.3e}")


def direction_of(xi) -> np.ndarray:
    """Inverse stereographic direction of the base coordinate, elementwise:
    shape ``shape(xi) + (3,)`` with the last axis xyz (a 3-vector at one point)."""
    xi = np.asarray(xi, dtype=complex)
    r2 = (xi * xi.conjugate()).real
    s = 1.0 + r2
    return np.stack([2.0 * xi.real / s, 2.0 * xi.imag / s, (1.0 - r2) / s], axis=-1)


def _ddirection(xi) -> np.ndarray:
    """Componentwise holomorphic derivative of ``direction_of``, elementwise
    like it (last axis xyz)."""
    xi = np.asarray(xi, dtype=complex)
    xb = xi.conjugate()
    s2 = (1.0 + (xi * xb).real) ** 2
    return np.stack([(1.0 - xb * xb) / s2, -1j * (1.0 + xb * xb) / s2, -2.0 * xb / s2], axis=-1)


def _lines(xi, eta) -> tuple[np.ndarray, np.ndarray]:
    """Directions and feet of the lines at base points ``xi`` with fibre
    coordinates ``eta``, elementwise (last axis xyz)."""
    return direction_of(xi), 2.0 * (np.expand_dims(eta, -1) * _ddirection(xi)).real


def to_oriented_line(p: TangentPoint) -> OrientedLine:
    """Read a point of TS^2 as an oriented line of 3-space (a ``TangentPoint`` is finite)."""
    direction, foot = _lines(p.xi, p.eta)
    return OrientedLine(direction=direction, foot=foot)


@dataclass(frozen=True)
class TorusFamily:
    """Parameters of the closed stationary torus congruences."""

    b2: float
    c2: float
    branch: int = 1

    def __post_init__(self):
        if not np.isfinite([self.b2, self.c2]).all():
            raise AdmissibilityError(f"need finite B2 and C2, got B2={self.b2}, C2={self.c2}")
        if self.b2 < 0.0:
            raise AdmissibilityError(f"need B2 >= 0, got {self.b2}")
        if self.c2 < -2.0 * self.b2:
            raise AdmissibilityError(f"need C2 >= -2 B2, got C2={self.c2}, B2={self.b2}")
        if self.branch not in (1, -1):
            raise AdmissibilityError(f"branch must be +1 or -1, got {self.branch}")

    def psi(self) -> RadialFunction:
        return _even_quartic(self.b2, self.c2, self.b2)


def torus_profile(fam: TorusFamily) -> RotSymProfile:
    """The torus congruence as a rotationally symmetric profile (H = 0)."""
    return RotSymProfile(
        geometry=sphere_geometry(),
        H=RadialFunction.constant(0.0),
        psi=fam.psi(),
        branch=fam.branch,
        domain=(1e-6, 1e6),
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
    sl = slopes(torus_section(fam), rs.astype(complex))
    signs = np.where(-sl.lam > 0.0, 1, -1).tolist()
    return [
        SignatureSample(r, cls, sign if cls is SurfaceClass.RIEMANNIAN else None)
        for r, cls, sign in zip(rs.tolist(), sl.classify().tolist(), signs)
    ]


def export_congruence(section: GraphSection, grid: AnnulusGrid, half_length: float, fmt: str,
                      path) -> int:
    """Write the line congruence of a section over the grid lattice.

    The section is evaluated once, on the whole lattice, and every line is
    checked as in :class:`OrientedLine`; a failing line raises
    :class:`DomainError` naming its node.

    OBJ: two vertices per line (the segment ends) and counter-clockwise
    quads joining angular neighbours at each radius, giving ruled-surface
    ribbons; an ``n_r x n_theta`` lattice yields ``2 n_r n_theta`` vertices
    and ``n_r (n_theta - 1)`` quads. CSV: one row per node with direction
    and foot in round-trip decimal form. Returns the number of segments.
    """
    if not 0.0 < half_length < np.inf:
        raise DomainError(f"half_length must be positive and finite, got {half_length}")
    if fmt not in ("obj", "csv"):
        raise DomainError(f"unknown export format '{fmt}'")
    if section.geometry.inverse_factor != ROUND_SPHERE:  # the round sphere or a reflection
        raise DomainError(
            "line congruences exist over the round sphere only; section geometry "
            f"'{section.geometry.name}' has another e^(-2u)"
        )

    rs, ts = grid._lattice()
    xi = _polar(rs, ts)
    d, f = _lines(xi, np.broadcast_to(section.F(xi), xi.shape))
    _check_lines(d, f, rs, ts)

    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "csv":
            fh.write("R,theta,dx,dy,dz,fx,fy,fz\n")
            _write_rows(fh, "", ",", (rs, ts, *d.T, *f.T))
        else:
            # node k owns the 1-based vertices 2k+1 (start) and 2k+2 (end); ring
            # r holds nodes r n_theta + j, and angular neighbours j, j+1 make a quad
            ends = f[:, None] + np.array([-half_length, half_length])[:, None] * d[:, None]
            first = np.arange(rs.size // grid.n_theta)[:, None] * grid.n_theta
            k = (first + np.arange(grid.n_theta - 1)).ravel()
            fh.write(f"# line congruence: {rs.size} segments\n")
            _write_rows(fh, "v ", " ", ends.reshape(-1, 3).T)
            _write_rows(fh, "f ", " ", (2 * k[:, None] + np.array([1, 3, 4, 2])).T)
    return rs.size
