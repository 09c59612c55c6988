"""Graph sections of TN -> N and their variational geometry.

A graph section is a surface ``xi -> (xi, eta = F(xi, xibar))``. Its
geometry is controlled by two complex slopes and one real invariant,

    sigma = -d(Fbar)          rho = e^{-2u} d(F e^{2u})        lam = Im rho,

with ``d`` the holomorphic Wirtinger derivative. The section is
holomorphic iff ``sigma = 0`` and lagrangian iff ``lam = 0``. The metric
induced by the ambient neutral metric has, in the ``(xi, xibar)``
component convention,

    matrix = e^{2u} [[i sigma, -lam], [-lam, -i conj(sigma)]]
    determinant = (lam^2 - sigma conj(sigma)) e^{4u},

so the point is riemannian (definite), lorentz or degenerate according to
the sign of ``det_factor = lam^2 - |sigma|^2``. The same determinant is
recovered independently by pulling the ambient 4x4 metric back through a
finite-difference Jacobian of the graph map (``pullback_determinant``);
the real-coordinate determinant equals 16 times the convention above
(one factor 4 from ``xi = x + iy``, one from the ambient normalisation).

Area-stationarity of a graph is the vanishing of

    i d( lam / sqrt|det_factor| ) - e^{-2u} dbar( sigma e^{2u} / sqrt|det_factor| ),

evaluated here by composing slope fields with Wirtinger derivatives
(``el_residual``) and cross-checked by differentiating the area functional
along compactly supported bumps (``first_variation``). The absolute value
under the square root is taken literally, so the residual is only defined
where ``det_factor`` keeps one sign across the whole stencil.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .ambient import ConformalGeometry, TangentPoint, ambient_frame, theta_form
from .errors import DomainError, SingularResidualError
from .numerics import (
    AnnulusGrid,
    ComplexField,
    RadialFunction,
    _node_sum,
    _node_table,
    integrate_annulus,
    integrate_circle,
)

__all__ = [
    "SurfaceClass",
    "GraphSection",
    "SlopeData",
    "InducedMetric",
    "slopes",
    "holomorphic_at",
    "lagrangian_at",
    "induced_metric",
    "pullback_metric",
    "pullback_determinant",
    "area",
    "el_residual",
    "first_variation",
    "stokes_check",
    "radial_bump",
    "bump_basis",
    "polynomial_section",
    "lagrangian_section",
    "conjugate_section",
    "export_classification_csv",
    "PULLBACK_DET_FACTOR",
]

#: real-coordinate pullback determinant = this factor times the
#: (xi, xibar)-convention determinant
PULLBACK_DET_FACTOR = 16.0

#: relative floor below which det_factor counts as degenerate
DEGENERACY_RTOL = 1e-9
#: absolute slope tolerance for the totally-null classification
NULL_ATOL = 1e-6
#: additive slope-squared scale in the degeneracy test; NULL_ATOL^2 keeps
#: exact null points (slopes at roundoff level) inside the degenerate class
DEGENERACY_SCALE_FLOOR = NULL_ATOL**2


class SurfaceClass(enum.Enum):
    RIEMANNIAN = "riemannian"
    LORENTZ = "lorentz"
    DEGENERATE = "degenerate"
    TOTALLY_NULL = "totally_null"

    def __str__(self) -> str:  # CSV-friendly
        return self.value


@dataclass(frozen=True)
class GraphSection:
    """A fibre coordinate ``F`` over a base geometry."""

    F: ComplexField
    geometry: ConformalGeometry

    def point(self, xi: complex) -> TangentPoint:
        return TangentPoint(xi, self.F(xi))


def _abs2(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


@dataclass(frozen=True)
class SlopeData:
    """Slope invariants of a graph at one point."""

    sigma: complex
    rho: complex

    @property
    def lam(self) -> float:
        return self.rho.imag

    @property
    def det_factor(self) -> float:
        lam = self.lam
        return lam * lam - _abs2(self.sigma)

    @property
    def degenerate(self) -> bool:
        """``det_factor`` is zero relative to the slope scale."""
        lam = self.lam
        lam2 = lam * lam
        ss = _abs2(self.sigma)
        return abs(lam2 - ss) < DEGENERACY_RTOL * (lam2 + ss + DEGENERACY_SCALE_FLOOR)

    def classify(self) -> SurfaceClass:
        if self.degenerate:
            if abs(self.sigma) < NULL_ATOL and abs(self.lam) < NULL_ATOL:
                return SurfaceClass.TOTALLY_NULL
            return SurfaceClass.DEGENERATE
        return SurfaceClass.RIEMANNIAN if self.det_factor > 0.0 else SurfaceClass.LORENTZ


@dataclass(frozen=True)
class InducedMetric:
    """Induced metric of a graph at one point, ``(xi, xibar)`` components."""

    matrix: np.ndarray
    determinant: float
    classification: SurfaceClass


def slopes(section: GraphSection, xi: complex) -> SlopeData:
    """Evaluate the slope invariants at ``xi``."""
    sigma = -section.F.wirtinger_dbar(xi).conjugate()
    rho = section.F.wirtinger_d(xi) + 2.0 * section.F(xi) * section.geometry.du_at(xi)
    return SlopeData(sigma=sigma, rho=rho)


def _slope_tol(section: GraphSection, tol: Optional[float]) -> float:
    if tol is not None:
        return tol
    return 1e-9 if section.F.analytic else 1e-6


def holomorphic_at(section: GraphSection, xi: complex, tol: Optional[float] = None) -> bool:
    """True when ``|sigma| < tol`` (the tangent plane is J-invariant)."""
    return abs(slopes(section, xi).sigma) < _slope_tol(section, tol)


def lagrangian_at(section: GraphSection, xi: complex, tol: Optional[float] = None) -> bool:
    """True when ``|lam| < tol`` (the symplectic form pulls back to zero)."""
    return abs(slopes(section, xi).lam) < _slope_tol(section, tol)


def induced_metric(section: GraphSection, xi: complex) -> InducedMetric:
    sl = slopes(section, xi)
    w = section.geometry.conformal_factor(xi)
    matrix = w * np.array(
        [
            [1j * sl.sigma, -sl.lam],
            [-sl.lam, -1j * sl.sigma.conjugate()],
        ]
    )
    matrix.flags.writeable = False
    return InducedMetric(
        matrix=matrix,
        determinant=sl.det_factor * w * w,
        classification=sl.classify(),
    )


def _fd_jacobian(section: GraphSection, xi: complex, h: Optional[float] = None) -> np.ndarray:
    """4x2 Jacobian of ``(x, y) -> (x, y, p, q)`` by central differences.

    Deliberately ignores any closed-form derivatives of F so the pullback
    stays an independent check on the slope formulas.
    """
    if h is None:
        h = 1e-6 * max(1.0, abs(xi))
    fx = (section.F(xi + h) - section.F(xi - h)) / (2.0 * h)
    fy = (section.F(xi + 1j * h) - section.F(xi - 1j * h)) / (2.0 * h)
    return np.array(
        [
            [1.0, 0.0],
            [0.0, 1.0],
            [fx.real, fy.real],
            [fx.imag, fy.imag],
        ]
    )


def pullback_metric(section: GraphSection, xi: complex, h: Optional[float] = None) -> np.ndarray:
    """Pull the ambient metric back through the graph map; real 2x2 in (x, y)."""
    frame = ambient_frame(section.geometry, section.point(xi))
    jac = _fd_jacobian(section, xi, h)
    return jac.T @ frame.G4 @ jac


def pullback_determinant(section: GraphSection, xi: complex, h: Optional[float] = None) -> float:
    """Pullback determinant converted to the ``(xi, xibar)`` convention."""
    return float(np.linalg.det(pullback_metric(section, xi, h))) / PULLBACK_DET_FACTOR


def _slope_table(
    section: GraphSection, grid: AnnulusGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``sigma``, ``lam`` and ``e^{2u}`` at every Gauss node of the grid."""

    def at(r: float, t: float) -> tuple[complex, float, float]:
        xi = r * complex(math.cos(t), math.sin(t))
        sl = slopes(section, xi)
        return sl.sigma, sl.lam, section.geometry.conformal_factor(xi)

    table = _node_table(at, grid)
    return table[..., 0], table[..., 1].real, table[..., 2].real


def _area_from_slopes(sigma: np.ndarray, lam: np.ndarray, w: np.ndarray, grid: AnnulusGrid):
    """Area from node tables of the slopes; leading axes (one per ``t``) are kept."""
    return _node_sum(2.0 * np.sqrt(np.abs(lam * lam - _abs2(sigma))) * w, grid)


def area(section: GraphSection, grid: AnnulusGrid) -> float:
    """Induced area ``∫∫ |det_factor|^{1/2} e^{2u} * 2 dx dy`` over the annulus.

    The normalisation fixes ``|dxi ^ dxibar| = 2 dx ^ dy``; stationarity
    statements do not depend on it, absolute values do.
    """
    return float(_area_from_slopes(*_slope_table(section, grid), grid))


def _residual_step(section: GraphSection, xi: complex, h: Optional[float]) -> float:
    # slope fields steepen like (R - R0)^{-1/2} near zeros of the squared
    # imaginary part, so analytic sections get a small step (their slope
    # evaluations are exact and the difference noise stays near 1e-10)
    if h is not None:
        return h
    scale = max(1.0, abs(xi))
    return (1e-6 if section.F.analytic else 5e-4) * scale


def _residual_quotient(section: GraphSection, xi: complex, step: float) -> complex:
    """Central-difference value of the stationarity operator at one step."""
    stencil = [xi, xi + step, xi - step, xi + 1j * step, xi - 1j * step]
    data = [slopes(section, z) for z in stencil]

    for z, sl in zip(stencil, data):
        if sl.degenerate:
            raise SingularResidualError(f"degenerate induced metric near xi={z}")
    signs = {math.copysign(1.0, sl.det_factor) for sl in data}
    if len(signs) > 1:
        raise SingularResidualError(f"det_factor changes sign on the stencil at xi={xi}")
    if data[0].det_factor > 0.0:
        lam_signs = {math.copysign(1.0, sl.lam) for sl in data}
        if len(lam_signs) > 1:
            raise SingularResidualError(f"lam changes sign on a definite stencil at xi={xi}")

    def p_val(sl: SlopeData) -> float:
        return sl.lam / math.sqrt(abs(sl.det_factor))

    def q_val(z: complex, sl: SlopeData) -> complex:
        w = section.geometry.conformal_factor(z)
        return sl.sigma * w / math.sqrt(abs(sl.det_factor))

    px = (p_val(data[1]) - p_val(data[2])) / (2.0 * step)
    py = (p_val(data[3]) - p_val(data[4])) / (2.0 * step)
    d_p = 0.5 * (px - 1j * py)

    qx = (q_val(stencil[1], data[1]) - q_val(stencil[2], data[2])) / (2.0 * step)
    qy = (q_val(stencil[3], data[3]) - q_val(stencil[4], data[4])) / (2.0 * step)
    dbar_q = 0.5 * (qx + 1j * qy)

    w0 = section.geometry.conformal_factor(xi)
    return 1j * d_p - dbar_q / w0


def el_residual(section: GraphSection, xi: complex, h: Optional[float] = None) -> complex:
    """Area-stationarity residual at ``xi``; zero on stationary graphs.

    One Richardson step on the central differences removes the leading
    truncation term, which matters where the slope fields steepen near
    zeros of the squared imaginary part. Raises
    :class:`SingularResidualError` when ``det_factor`` is degenerate or
    changes sign on the stencil, or when ``lam`` changes sign while the
    metric is definite (the square-root branch would jump).
    """
    step = _residual_step(section, xi, h)
    coarse = _residual_quotient(section, xi, step)
    fine = _residual_quotient(section, xi, 0.5 * step)
    return (4.0 * fine - coarse) / 3.0


def radial_bump(r_lo: float, r_hi: float) -> RadialFunction:
    """A C^2 hat supported on ``[r_lo, r_hi]``, peak value 1.

    The profile ``(4 s (1-s))^3`` vanishes with its first two derivatives
    at both endpoints, so bumps qualify as admissible variations.
    """
    width = r_hi - r_lo

    def f(r: float) -> float:
        s = (r - r_lo) / width
        if s <= 0.0 or s >= 1.0:
            return 0.0
        return (4.0 * s * (1.0 - s)) ** 3

    def df(r: float) -> float:
        s = (r - r_lo) / width
        if s <= 0.0 or s >= 1.0:
            return 0.0
        return 192.0 * (s * (1.0 - s)) ** 2 * (1.0 - 2.0 * s) / width

    return RadialFunction(f, df)


def _angular_field(
    g: Callable[[float], complex], dg: Callable[[float], complex], k: int
) -> ComplexField:
    """The angular mode ``g(R) e^{i k theta}`` with closed Wirtinger derivatives

        d    = e^{i (k-1) theta} (g' + k g / R) / 2,
        dbar = e^{i (k+1) theta} (g' - k g / R) / 2,

    written with the phase ``xi / R`` so that ``k = 1`` needs no power
    beyond the exact ``phase**0`` and ``xi**1``.
    """

    def radius(xi: complex) -> float:
        r = abs(xi)
        if r == 0.0:
            raise DomainError("angular mode undefined at xi = 0")
        return r

    def ev(xi: complex) -> complex:
        r = radius(xi)
        return g(r) * xi**k / r**k

    def d(xi: complex) -> complex:
        r = radius(xi)
        return 0.5 * (xi / r) ** (k - 1) * (dg(r) + k * g(r) / r)

    def dbar(xi: complex) -> complex:
        r = radius(xi)
        return 0.5 * (xi / r) ** (k + 1) * (dg(r) - k * g(r) / r)

    return ComplexField(ev, d=d, dbar=dbar)


def bump_basis(
    r_lo: float, r_hi: float, ks: Sequence[int] = (0, 1, -1, 2, -2)
) -> list[ComplexField]:
    """Compactly supported variation bumps: radial hat times ``e^{i k theta}``,
    applied separately to the real and imaginary parts of the perturbation."""
    phi = radial_bump(r_lo, r_hi)
    return [
        _angular_field(lambda r, c=c: c * phi(r), lambda r, c=c: c * phi.deriv(r), k)
        for k in ks
        for c in (1.0, 1.0j)
    ]


def first_variation(
    section: GraphSection,
    bump: ComplexField,
    grid: AnnulusGrid,
    t_step: float = 1e-5,
) -> float:
    """Derivative of the area along ``F + t * bump`` at ``t = 0``.

    Symmetric differences in ``t`` with one Richardson step. The slopes
    are real-linear in the field, ``sigma(F + t b) = sigma(F) + t sigma(b)``
    and likewise ``lam``, so ``slopes`` runs once per Gauss node for F and
    once for the bump, and the four shifted areas are sums over the same
    per-node table that ``area`` reads. This is the independent
    stationarity oracle: it shares nothing with ``el_residual`` and does
    no spatial differencing.
    """
    sigma, lam, w = _slope_table(section, grid)
    sigma_b, lam_b, _ = _slope_table(GraphSection(bump, section.geometry), grid)
    ts = np.array([t_step, -t_step, 0.5 * t_step, -0.5 * t_step])[:, None, None]
    a_plus, a_minus, h_plus, h_minus = _area_from_slopes(
        sigma + ts * sigma_b, lam + ts * lam_b, w, grid
    )
    coarse = (a_plus - a_minus) / (2.0 * t_step)
    fine = (h_plus - h_minus) / t_step
    return float((4.0 * fine - coarse) / 3.0)


def stokes_check(
    section: GraphSection, grid: AnnulusGrid, n_boundary: int = 512
) -> tuple[float, float]:
    """Integral of the pulled-back symplectic form vs. its boundary primitive.

    Returns ``(interior, boundary)`` where ``interior`` integrates the
    pullback of Omega over the annulus graph and ``boundary`` is the
    circulation of the primitive 1-form along the outer circle minus the
    inner circle. Exactness of Omega makes the two agree.
    """

    def interior_integrand(r: float, t: float) -> float:
        xi = r * complex(math.cos(t), math.sin(t))
        frame = ambient_frame(section.geometry, section.point(xi))
        jac = _fd_jacobian(section, xi)
        return float(jac[:, 0] @ frame.O4 @ jac[:, 1])

    interior = integrate_annulus(interior_integrand, grid)

    def circulation(r: float) -> float:
        def integrand(t: float) -> float:
            xi = r * complex(math.cos(t), math.sin(t))
            th = theta_form(section.geometry, section.point(xi))
            tangent = np.array([-r * math.sin(t), r * math.cos(t), 0.0, 0.0])
            return th(tangent)

        return integrate_circle(integrand, n_boundary)

    boundary = circulation(grid.r_max) - circulation(grid.r_min)
    return interior, boundary


def polynomial_section(
    geometry: ConformalGeometry, coeffs: dict[tuple[int, int], complex]
) -> GraphSection:
    """Section with ``F = sum c_{mn} xi^m xibar^n`` and exact derivatives."""
    terms = [(m, n, complex(c)) for (m, n), c in coeffs.items()]

    def ev(xi: complex) -> complex:
        xb = xi.conjugate()
        return sum(c * xi**m * xb**n for m, n, c in terms)

    def d(xi: complex) -> complex:
        xb = xi.conjugate()
        return sum(m * c * xi ** (m - 1) * xb**n for m, n, c in terms if m > 0)

    def dbar(xi: complex) -> complex:
        xb = xi.conjugate()
        return sum(n * c * xi**m * xb ** (n - 1) for m, n, c in terms if n > 0)

    return GraphSection(ComplexField(ev, d=d, dbar=dbar), geometry)


def lagrangian_section(
    geometry: ConformalGeometry, potential: dict[tuple[int, int], complex]
) -> GraphSection:
    """The gradient-type section ``F = e^{-2u} dbar(h)`` of a real potential h.

    ``potential`` holds monomial coefficients of h, symmetrised so that
    ``c_{nm} = conj(c_{mn})`` and h is real. Then ``F e^{2u} = dbar h``,
    so ``rho = e^{-2u} d dbar h = e^{-2u} Laplacian(h) / 4`` is real and
    ``lam = 0`` identically; the primitive 1-form pulls back to ``dh``.
    Supported for the flat and round-sphere geometries, where ``e^{-2u}``
    is a polynomial in ``xi, xibar``, so F is a polynomial section.
    """
    if geometry.name == "flat":
        v = {(0, 0): 1.0}
    elif geometry.name == "sphere":
        v = {(0, 0): 0.25, (1, 1): 0.5, (2, 2): 0.25}  # (1 + xi xibar)^2 / 4
    else:
        raise NotImplementedError(
            f"gradient sections need a polynomial e^(-2u); geometry '{geometry.name}'"
        )
    herm: dict[tuple[int, int], complex] = {}
    for (m, n), c in potential.items():
        herm[(m, n)] = herm.get((m, n), 0.0) + 0.5 * c
        herm[(n, m)] = herm.get((n, m), 0.0) + 0.5 * c.conjugate()
    coeffs: dict[tuple[int, int], complex] = {}
    for (m, n), c in herm.items():
        if n > 0:  # dbar h, times e^{-2u}
            for (p, q), a in v.items():
                key = (m + p, n - 1 + q)
                coeffs[key] = coeffs.get(key, 0.0) + a * n * c
    return polynomial_section(geometry, coeffs)


def conjugate_section(section: GraphSection) -> GraphSection:
    """The section ``xi -> conj(F(conj xi))`` over the reflected geometry.

    The stationarity residual of the conjugated section at ``xi`` is the
    conjugate of the original residual at ``conj(xi)``.
    """
    F = section.F
    geom = section.geometry

    field = ComplexField(
        lambda xi: F(xi.conjugate()).conjugate(),
        d=(lambda xi: F.d(xi.conjugate()).conjugate()) if F.d is not None else None,
        dbar=(lambda xi: F.dbar(xi.conjugate()).conjugate()) if F.dbar is not None else None,
        fd_step=F.fd_step,
    )
    refl = ConformalGeometry(
        name=geom.name + "~",
        u=lambda xi: geom.u_at(xi.conjugate()),
        du=lambda xi: geom.du_at(xi.conjugate()).conjugate(),
        rotationally_symmetric=geom.rotationally_symmetric,
        u_of_R=geom.u_of_R,
        du_of_R=geom.du_of_R,
        ddu_of_R=geom.ddu_of_R,
    )
    return GraphSection(field, refl)


def export_classification_csv(section: GraphSection, grid: AnnulusGrid, path) -> int:
    """Write the slope/classification map on the grid lattice; returns row count."""
    rows = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("R,theta,re_sigma,im_sigma,lambda,det_factor,abs_residual,class\n")
        for r, t in grid.mesh_nodes():
            xi = r * complex(math.cos(t), math.sin(t))
            sl = slopes(section, xi)
            try:
                res = abs(el_residual(section, xi))
            except SingularResidualError:
                res = float("nan")
            fh.write(
                f"{r!r},{t!r},{sl.sigma.real!r},{sl.sigma.imag!r},"
                f"{sl.lam!r},{sl.det_factor!r},{res!r},{sl.classify()}\n"
            )
            rows += 1
    return rows
