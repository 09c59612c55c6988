"""The neutral Kahler triple (J, Omega, G) on the tangent bundle TN.

The base surface N carries a conformal metric ``e^{2u} dxi dxibar`` in a
holomorphic coordinate ``xi``; a point of TN is ``(xi, eta)`` with ``eta``
the fibre coordinate. In real coordinates ``(x, y, p, q)``, where
``xi = x + iy`` and ``eta = p + iq``, the three ambient structures are
stacks of real 4x4 matrices, shape ``(..., 4, 4)`` over an array of points
(a plain 4x4 matrix at one point):

* ``J4`` acts as multiplication by ``i`` on both the base and the fibre,
* ``O4[a, b] = Omega(e_a, e_b)`` is the symplectic form,
* ``G4[a, b] = G(e_a, e_b)`` is the neutral metric, ``G = Omega(J ., .)``.

The normalisation is pinned by the primitive 1-form

    Theta = eta e^{2u} d(xibar) + etabar e^{2u} d(xi),

whose exterior derivative is Omega exactly. With ``w = e^{2u}`` and
``dw`` its holomorphic derivative the nonzero entries are

    Omega(dp,dx)-block:  O4[p,x] = O4[q,y] = 2w,   O4[x,y] = 4 Im(eta dw)
    G4[x,x] = G4[y,y] = -4 Im(eta dw),  G4[y,p] = 2w,  G4[x,q] = -2w.

Every identity of the construction (compatibility, J-invariance, neutral
signature, exactness, the calibration inequality) is then a finite matrix
statement, checked in the test-suite against seeded random data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    AmbiguousSignatureError,
    DegeneratePlaneError,
    DerivativeUnavailableError,
    DomainError,
)
from .numerics import RadialFunction

__all__ = [
    "ConformalGeometry",
    "TangentPoint",
    "AmbientFrame",
    "ThetaForm",
    "flat_geometry",
    "sphere_geometry",
    "radial_geometry",
    "ambient_frame",
    "calibration_gap",
    "ambient_signature",
    "theta_form",
    "J4_MATRIX",
]

#: multiplication by i on base and fibre, in coordinates (x, y, p, q)
J4_MATRIX = np.array(
    [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)
J4_MATRIX.flags.writeable = False

#: signature selector of the neutral branch of the calibration identity
EPSILON = -1

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class ConformalGeometry:
    """The conformal exponent u of the base metric ``e^{2u} dxi dxibar``.

    ``u`` maps the complex coordinate to a real value; ``du`` is the closed
    form of its holomorphic Wirtinger derivative when available. Both work
    elementwise on arrays of nodes (a constant may come back as a scalar).
    For rotationally symmetric geometries the radial profile ``u_of_R`` and
    its two derivatives are carried as well (they drive the ODE machinery).
    """

    name: str
    u: Callable
    du: Optional[Callable] = None
    rotationally_symmetric: bool = False
    u_of_R: Optional[RadialFunction] = None
    du_of_R: Optional[RadialFunction] = None
    ddu_of_R: Optional[RadialFunction] = None

    def du_at(self, xi):
        """Holomorphic derivative of u, by closed form or finite differences."""
        if self.du is not None:
            return self.du(xi)
        h = 1e-6 * np.maximum(1.0, abs(xi))
        ux = (self.u(xi + h) - self.u(xi - h)) / (2.0 * h)
        uy = (self.u(xi + 1j * h) - self.u(xi - 1j * h)) / (2.0 * h)
        return 0.5 * (ux - 1j * uy)

    def conformal_factor(self, xi):
        """The metric density ``w = e^{2u}`` (always positive)."""
        return np.exp(2.0 * self.u(xi))

    def require_radial(self) -> None:
        if not self.rotationally_symmetric or self.u_of_R is None:
            raise DomainError(
                f"geometry '{self.name}' has no rotationally symmetric radial profile"
            )

    def radial_u(self, r):
        self.require_radial()
        return self.u_of_R(r)

    def radial_du(self, r):
        self.require_radial()
        return self.du_of_R(r) if self.du_of_R is not None else self.u_of_R.deriv(r, 1)

    def radial_ddu(self, r):
        self.require_radial()
        return self.ddu_of_R(r) if self.ddu_of_R is not None else self.u_of_R.deriv(r, 2)


def flat_geometry() -> ConformalGeometry:
    """The Euclidean plane, ``u = 0``."""
    zero = RadialFunction.constant(0.0)
    return ConformalGeometry(
        name="flat",
        u=lambda xi: 0.0,
        du=lambda xi: 0.0j,
        rotationally_symmetric=True,
        u_of_R=zero,
        du_of_R=zero,
        ddu_of_R=zero,
    )


def sphere_geometry() -> ConformalGeometry:
    """The round 2-sphere, ``e^{2u} = 4 (1 + |xi|^2)^{-2}``."""

    def u(xi):
        return _LOG2 - np.log1p((xi * xi.conjugate()).real)

    def du(xi):
        return -xi.conjugate() / (1.0 + (xi * xi.conjugate()).real)

    return ConformalGeometry(
        name="sphere",
        u=u,
        du=du,
        rotationally_symmetric=True,
        u_of_R=RadialFunction(
            lambda r: _LOG2 - np.log1p(r * r),
            lambda r: -2.0 * r / (1.0 + r * r),
            lambda r: -2.0 * (1.0 - r * r) / (1.0 + r * r) ** 2,
        ),
        du_of_R=RadialFunction(
            lambda r: -2.0 * r / (1.0 + r * r),
            lambda r: -2.0 * (1.0 - r * r) / (1.0 + r * r) ** 2,
        ),
        ddu_of_R=RadialFunction(lambda r: -2.0 * (1.0 - r * r) / (1.0 + r * r) ** 2),
    )


def radial_geometry(
    name: str,
    u_of_R: RadialFunction,
    du_of_R: Optional[RadialFunction] = None,
    ddu_of_R: Optional[RadialFunction] = None,
) -> ConformalGeometry:
    """A rotationally symmetric geometry from a radial profile ``u(R)``.

    Closed-form first and second radial derivatives should be supplied for
    the ODE machinery; they fall back to finite differences otherwise.
    """
    if du_of_R is None:
        du_of_R = RadialFunction(lambda r: u_of_R.deriv(r, 1))
    if ddu_of_R is None:
        ddu_of_R = RadialFunction(lambda r: u_of_R.deriv(r, 2))

    def u(xi):
        return u_of_R(abs(xi))

    def du(xi):
        r = abs(xi)
        origin = r == 0.0
        r = np.where(origin, 1.0, r)  # du vanishes at the centre of symmetry
        return np.where(origin, 0.0j, du_of_R(r) * xi.conjugate() / (2.0 * r))

    return ConformalGeometry(
        name=name,
        u=u,
        du=du,
        rotationally_symmetric=True,
        u_of_R=u_of_R,
        du_of_R=du_of_R,
        ddu_of_R=ddu_of_R,
    )


@dataclass(frozen=True)
class TangentPoint:
    """A point ``(xi, eta)`` of TN, or elementwise an array of points."""

    xi: complex
    eta: complex

    def __post_init__(self):
        if not (np.isfinite(self.xi) & np.isfinite(self.eta)).all():
            raise DomainError(f"non-finite tangent point ({self.xi}, {self.eta})")


@dataclass(frozen=True)
class AmbientFrame:
    """The triple (G, Omega, J) as real 4x4 matrices, stacked ``(..., 4, 4)``
    over an array of points (``metric``/``symplectic`` take one point)."""

    G4: np.ndarray
    O4: np.ndarray
    J4: np.ndarray
    epsilon: int = EPSILON

    def metric(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(a @ self.G4 @ b)

    def symplectic(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(a @ self.O4 @ b)


@dataclass(frozen=True)
class ThetaForm:
    """The primitive 1-form of Omega as real 4-covectors, stacked ``(..., 4)``."""

    components: np.ndarray

    def __call__(self, v: np.ndarray):
        """Theta on tangent vectors ``v`` (last axis 4), elementwise over the stack."""
        return np.sum(self.components * v, axis=-1)


def ambient_frame(geom: ConformalGeometry, p: TangentPoint) -> AmbientFrame:
    """Evaluate (G, Omega, J) at ``p`` for the given base geometry, elementwise
    over an array of points (a constant ``e^{2u}`` broadcasts to their shape)."""
    w = geom.conformal_factor(p.xi)
    try:
        dw = 2.0 * w * geom.du_at(p.xi)
    except Exception as exc:
        raise DerivativeUnavailableError(
            f"derivative of e^(2u) unavailable at xi={p.xi}: {exc}"
        ) from exc
    m = -4.0 * (p.eta * dw).imag
    two_w = 2.0 * w
    # slice assignment, not np.stack, which costs more than a whole frame at one point
    shape = np.shape(p.xi + p.eta) + (4, 4)
    G4, O4 = np.zeros(shape), np.zeros(shape)
    G4[..., 0, 0] = G4[..., 1, 1] = O4[..., 1, 0] = m
    O4[..., 0, 1] = -m
    G4[..., 1, 2] = G4[..., 2, 1] = O4[..., 2, 0] = O4[..., 3, 1] = two_w
    G4[..., 0, 3] = G4[..., 3, 0] = O4[..., 0, 2] = O4[..., 1, 3] = -two_w
    G4.flags.writeable = O4.flags.writeable = False
    return AmbientFrame(G4=G4, O4=O4, J4=J4_MATRIX)


def calibration_gap(frame: AmbientFrame, v1: np.ndarray, v2: np.ndarray) -> float:
    """The square gap ``Omega(v1,v2)^2 - det G(v_i, v_j)`` of a plane.

    For the neutral metric the gap is non-negative for every plane and
    vanishes exactly on J-invariant (complex) planes, which makes the
    symplectic area a calibration of the metric area.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    sv = np.linalg.svd(np.stack([v1, v2]), compute_uv=False)
    if sv[-1] <= 1e-12 * max(sv[0], 1e-300):
        raise DegeneratePlaneError("v1, v2 do not span a plane")
    om = frame.symplectic(v1, v2)
    g11 = frame.metric(v1, v1)
    g12 = frame.metric(v1, v2)
    g22 = frame.metric(v2, v2)
    return om * om - (g11 * g22 - g12 * g12)


def ambient_signature(frame: AmbientFrame, tol: float = 1e-10) -> tuple[int, int]:
    """Counts of positive and negative eigenvalues of the metric."""
    eigs = np.linalg.eigvalsh(frame.G4)
    scale = max(float(np.max(np.abs(eigs))), 1e-300)
    for lam in eigs:
        if abs(lam) < tol * scale:
            raise AmbiguousSignatureError(float(lam))
    pos = int(np.sum(eigs > 0.0))
    return pos, len(eigs) - pos


def theta_form(geom: ConformalGeometry, p: TangentPoint) -> ThetaForm:
    """The primitive of Omega: ``2 e^{2u} (Re(eta) dx + Im(eta) dy)``, elementwise."""
    two_w = 2.0 * geom.conformal_factor(p.xi)
    comp = np.zeros(np.shape(p.xi + p.eta) + (4,))
    comp[..., 0] = two_w * p.eta.real
    comp[..., 1] = two_w * p.eta.imag
    comp.flags.writeable = False
    return ThetaForm(components=comp)
