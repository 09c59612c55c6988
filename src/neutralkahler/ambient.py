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

An ``AmbientFrame`` is the pair ``(G4, O4)``; ``ambient_frame`` writes both
into one read-only ``(2, ..., 4, 4)`` buffer, of which they are the two
contiguous halves. ``calibration_gap`` reads the pair of one point as one
``(2, 4, 4)`` operand (a copy, so any frame will do) and forms both Gram
matrices of a plane in one stacked product.

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
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import AmbiguousSignatureError, DegeneratePlaneError, DomainError
from .numerics import RadialFunction, _first_where

__all__ = [
    "ConformalGeometry",
    "TangentPoint",
    "AmbientFrame",
    "ThetaForm",
    "flat_geometry",
    "sphere_geometry",
    "radial_geometry",
    "ROUND_SPHERE",
    "GEOMETRIES",
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

#: eigenvalues of the metric below this fraction of the largest make its signature ambiguous
SIGNATURE_RTOL = 1e-10

_LOG2 = math.log(2.0)

#: ``e^{-2u} = (1 + xi xibar)^2 / 4`` of the round sphere, as (xi, xibar) monomial
#: coefficients: the geometry over which TN is the space of oriented lines of R^3
ROUND_SPHERE = ((0.25, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 0.25))


class ConformalGeometry(NamedTuple):
    """The conformal exponent u of the base metric ``e^{2u} dxi dxibar``.

    ``u`` maps the complex coordinate to a real value; ``du``, required, is the
    closed form of its holomorphic Wirtinger derivative (the plane's one finite
    difference, ``numerics._plane_partials``, serves the pullback oracle alone). Both work
    elementwise on arrays of nodes (a constant may come back as a scalar).
    A rotationally symmetric geometry also carries its radial profile
    ``u_of_R``, whose first two derivatives (``u_of_R.df``, ``.d2f``) drive the ODE
    machinery; ``u_of_R`` is ``None`` for any other geometry. Where ``e^{-2u}``
    is a polynomial in ``xi, xibar``, ``inverse_factor`` holds its coefficients,
    row ``m`` and column ``n`` that of ``xi^m xibar^n``, as nested tuples of
    floats (so a geometry stays comparable); it is ``None`` otherwise.
    """

    name: str
    u: Callable
    du: Callable
    u_of_R: Optional[RadialFunction] = None
    inverse_factor: Optional[tuple[tuple[float, ...], ...]] = None

    def conformal_factor(self, xi):
        """The metric density ``w = e^{2u}`` (always positive)."""
        return np.exp(2.0 * self.u(xi))

    def require_radial(self) -> None:
        if self.u_of_R is None:
            raise DomainError(
                f"geometry '{self.name}' has no rotationally symmetric radial profile"
            )

    def radial_u(self, r):
        self.require_radial()
        return self.u_of_R(r)

    def radial_du(self, r):
        self.require_radial()
        return self.u_of_R.df(r)

    def radial_ddu(self, r):
        self.require_radial()
        return self.u_of_R.d2f(r)


def flat_geometry() -> ConformalGeometry:
    """The Euclidean plane, ``u = 0``."""
    return ConformalGeometry(
        name="flat", u=lambda xi: 0.0, du=lambda xi: 0.0j, u_of_R=RadialFunction.constant(0.0),
        inverse_factor=((1.0,),),
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
        u_of_R=RadialFunction(
            lambda r: _LOG2 - np.log1p(r * r),
            lambda r: -2.0 * r / (1.0 + r * r),
            lambda r: -2.0 * (1.0 - r * r) / (1.0 + r * r) ** 2,
        ),
        inverse_factor=ROUND_SPHERE,
    )


def radial_geometry(name: str, u_of_R: RadialFunction) -> ConformalGeometry:
    """A rotationally symmetric geometry from a radial profile ``u(R)`` with its
    closed-form ``u'``; the ODE machinery also reads its ``u''``, ``u_of_R.d2f``.

    Its ``inverse_factor`` is always ``None``: a radial profile cannot say that
    ``e^{-2u}`` is a polynomial, so lagrangian sections and line congruences refuse
    the geometry as built. ``._replace(inverse_factor=...)`` supplies the polynomial
    (``ROUND_SPHERE`` for a profile of the round sphere)."""

    def u(xi):
        return u_of_R(abs(xi))

    def du(xi):
        r = abs(xi)
        origin = r == 0.0
        r = np.where(origin, 1.0, r)  # du vanishes at the centre of symmetry
        return np.where(origin, 0.0j, u_of_R.df(r) * xi.conjugate() / (2.0 * r))

    return ConformalGeometry(name=name, u=u, du=du, u_of_R=u_of_R)


#: every geometry a run can name, one row each: (constructor, the radial range its
#: random stationary families are drawn over); the built geometry carries the rest
#: of what it is, its e^{-2u} polynomial included
GEOMETRIES = {
    "flat": (flat_geometry, (0.3, 4.0)),
    "sphere": (sphere_geometry, (0.15, 0.95)),
}


@dataclass(frozen=True)
class TangentPoint:
    """A point ``(xi, eta)`` of TN, or elementwise an array of points."""

    xi: complex
    eta: complex

    def __post_init__(self):
        # a zero byte marks a non-finite entry (the search costs half of np.count_nonzero
        # and a third of .all() on numpy's boolean scalar); no sum or product of
        # coordinates, which could overflow or warn on inf * 0
        if 0 in (np.isfinite(self.xi) & np.isfinite(self.eta)).tobytes():
            bad = ~(np.isfinite(self.xi) & np.isfinite(self.eta))
            index, xi, eta = _first_where(bad, self.xi, self.eta)
            at = f" at index {index}" if index else ""
            raise DomainError(f"non-finite tangent point ({xi}, {eta}){at}")

    @property
    def shape(self) -> tuple:
        """The broadcast shape of the coordinates, ``()`` at one point."""
        # np.shape would first build a 0-d array from a Python complex
        return getattr(self.xi + self.eta, "shape", ())


class AmbientFrame(NamedTuple):
    """The pair (G, Omega) as real 4x4 matrices, stacked ``(..., 4, 4)`` over an
    array of points; J is the same at every point, the class attribute ``J4``
    (:data:`J4_MATRIX`). ``ambient_frame`` makes ``G4`` and ``O4`` the two
    halves of one ``(2, ..., 4, 4)`` buffer, but any two matrices make a frame:
    ``calibration_gap`` copies one point's pair into one ``(2, 4, 4)`` array
    and reads nothing else of it. ``metric`` and ``symplectic`` take one
    point's frame and raise ``DomainError`` on a stack."""

    G4: np.ndarray
    O4: np.ndarray
    J4 = J4_MATRIX  # not annotated: an annotated name would be a third field

    def metric(self, a: np.ndarray, b: np.ndarray) -> float:
        _require_one_point(self, "AmbientFrame.metric")
        return float(a @ self.G4 @ b)

    def symplectic(self, a: np.ndarray, b: np.ndarray) -> float:
        _require_one_point(self, "AmbientFrame.symplectic")
        return float(a @ self.O4 @ b)


class ThetaForm(NamedTuple):
    """The primitive 1-form of Omega as real 4-covectors, stacked ``(..., 4)``."""

    components: np.ndarray

    def __call__(self, v: np.ndarray):
        """Theta on tangent vectors ``v`` (last axis 4), elementwise over the stack."""
        return np.sum(self.components * v, axis=-1)


def ambient_frame(geom: ConformalGeometry, p: TangentPoint) -> AmbientFrame:
    """Evaluate (G, Omega, J) at ``p`` for the given base geometry, elementwise
    over an array of points (a constant ``e^{2u}`` broadcasts to their shape)."""
    two_w = 2.0 * geom.conformal_factor(p.xi)
    # the complex factor on the left: at one point, complex * np.float64 stays
    # Python arithmetic, where np.float64 * complex makes a numpy complex scalar
    dw = geom.du(p.xi) * two_w
    m = -4.0 * (p.eta * dw).imag
    # stores, not np.stack, which costs more than a whole frame at one point; G4 and
    # O4 share one buffer, made read-only once. The stores go through a view with the
    # point axes last: a value broadcasts over them, and an index without an
    # Ellipsis saves more than the transpose costs
    shape = p.shape
    GO = np.zeros((2,) + shape + (4, 4))
    E = GO.transpose((0, len(shape) + 1, len(shape) + 2, *range(1, len(shape) + 1)))
    E[0, 0, 0] = E[0, 1, 1] = E[1, 1, 0] = m
    E[1, 0, 1] = -m
    E[0, 1, 2] = E[0, 2, 1] = E[1, 2, 0] = E[1, 3, 1] = two_w
    E[0, 0, 3] = E[0, 3, 0] = E[1, 0, 2] = E[1, 1, 3] = -two_w
    GO.setflags(write=False)
    return AmbientFrame(GO[0], GO[1])


def _plane_extent(V: np.ndarray) -> tuple[float, float]:
    """Largest and smallest singular values ``(s_max, s_min)`` of the 2x4 matrix
    ``V`` (rows ``v1`` and ``v2``), in closed form on Python floats.

    Both vectors are first divided by their largest entry, so that neither
    overflow nor underflow of the squares decides the result. Then
    ``s_max^2 = (n11 + n22)/2 + hypot((n11 - n22)/2, n12)`` from the Gram
    entries, and ``s_min = |v1 ^ v2| / s_max`` from the six 2x2 minors; so a
    small ratio ``s_min / s_max`` keeps its accuracy (the Gram determinant
    would square it). Raises ``DomainError`` on a non-finite entry.
    """
    entries = V.ravel().tolist()
    big = max(map(abs, entries))
    if big > 0.0:
        a0, a1, a2, a3, b0, b1, b2, b3 = [x / big for x in entries]
        n11 = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
        n22 = b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3
        n12 = a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3
        s_max = math.sqrt(0.5 * (n11 + n22) + math.hypot(0.5 * (n11 - n22), n12))
        # finite entries scale into [-1, 1], so s_max is a number; an inf or nan
        # entry makes big or a scaled entry nan, and nan runs through to s_max
        if not math.isnan(s_max):
            wedge = math.hypot(a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0,
                               a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2)
            return s_max * big, wedge / s_max * big
    # here every entry is zero, or one is not finite (max skips a nan after the first entry)
    if not all(map(math.isfinite, entries)):
        raise DomainError(f"non-finite plane vectors {V[0]}, {V[1]}")
    return 0.0, 0.0


def _require_one_point(frame: AmbientFrame, caller: str) -> None:
    if frame.G4.shape != (4, 4) or frame.O4.shape != (4, 4):
        raise DomainError(f"{caller} takes one point's frame (4x4), "
                          f"not a stack of shape {frame.G4.shape}")


def calibration_gap(frame: AmbientFrame, v1: np.ndarray, v2: np.ndarray) -> float:
    """The square gap ``Omega(v1,v2)^2 - det G(v_i, v_j)`` of a plane, at one point.

    For the neutral metric the gap is non-negative for every plane and
    vanishes exactly on J-invariant (complex) planes, which makes the
    symplectic area a calibration of the metric area. Raises
    ``DegeneratePlaneError`` unless ``s_min > 1e-12 s_max`` (see
    ``_plane_extent``) and ``DomainError`` on a non-finite entry.

    With ``V`` the 2x4 matrix of rows ``v1, v2``, both Gram matrices come from
    one stacked product ``V @ (G4, O4) @ V.T``: the metric's is its first
    2x2 block and ``Omega(v1, v2)`` the upper corner of the second. Each entry
    is the same sum, in the same order, as in ``V @ G4 @ V.T`` and
    ``v1 @ O4 @ v2``, so the gap has the same bits. The pair is copied into
    one ``(2, 4, 4)`` array, whatever buffers the frame's matrices live in.
    """
    _require_one_point(frame, "calibration_gap")
    V = np.array([v1, v2], dtype=float)
    if V.shape != (2, 4):
        raise DomainError(f"calibration_gap takes two 4-vectors, not shape {V.shape}")
    s_max, s_min = _plane_extent(V)
    if not (s_min > 1e-12 * s_max):
        raise DegeneratePlaneError("v1, v2 do not span a plane")
    ((g11, g12), (_, g22)), ((_, om), _) = (V @ np.array(frame) @ V.T).tolist()
    return om * om - (g11 * g22 - g12 * g12)


def ambient_signature(frame: AmbientFrame) -> tuple[int, int]:
    """Counts of positive and negative eigenvalues of the metric at one point.

    Raises ``AmbiguousSignatureError`` for an eigenvalue below
    ``SIGNATURE_RTOL`` of the largest and ``DomainError`` for a non-finite
    metric entry (``eigvalsh`` reads one triangle and would not see it).
    """
    _require_one_point(frame, "ambient_signature")
    G4 = frame.G4
    if not all(map(math.isfinite, G4.ravel().tolist())):
        raise DomainError(f"non-finite metric {G4.tolist()}")
    eigs = np.linalg.eigvalsh(G4).tolist()
    # eigvalsh sorts the eigenvalues in ascending order, so the largest in size is an end one
    floor = SIGNATURE_RTOL * max(-eigs[0], eigs[-1], 1e-300)
    pos = 0
    for lam in eigs:
        if abs(lam) < floor:
            raise AmbiguousSignatureError(lam)
        pos += lam > 0.0
    return pos, len(eigs) - pos


def theta_form(geom: ConformalGeometry, p: TangentPoint) -> ThetaForm:
    """The primitive of Omega: ``2 e^{2u} (Re(eta) dx + Im(eta) dy)``, elementwise."""
    two_w = 2.0 * geom.conformal_factor(p.xi)
    comp = np.zeros(p.shape + (4,))
    comp[..., 0] = two_w * p.eta.real
    comp[..., 1] = two_w * p.eta.imag
    comp.setflags(write=False)
    return ThetaForm(comp)
