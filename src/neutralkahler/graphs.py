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
Every difference here is the one Richardson rule of ``numerics._richardson``.

Area-stationarity of a graph is the vanishing of

    i d( lam / sqrt|det_factor| ) - e^{-2u} dbar( sigma e^{2u} / sqrt|det_factor| ),

evaluated here by composing slope fields with Wirtinger derivatives
(``el_residual``) and cross-checked by differentiating the area functional
along compactly supported bumps (``first_variations``). The absolute value
under the square root is taken literally, so the residual is only defined
where ``det_factor`` keeps one sign across the whole stencil.

Slopes, classes and the residual also evaluate elementwise on arrays of
points, so each grid or lattice sweep is one call on elementwise fields
(one per block of ``_RESIDUAL_BLOCK`` points for the residual).
"""

from __future__ import annotations

import enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .ambient import ConformalGeometry, TangentPoint, ambient_frame, theta_form
from .errors import DomainError, SingularResidualError, UnsupportedGeometryError
from .numerics import (
    AnnulusGrid,
    ComplexField,
    _ARMS,
    _node_sum,
    _plane_partials,
    _polar,
    _require_finite,
    _richardson,
    _write_rows,
    integrate_circle,
)

__all__ = [
    "SurfaceClass",
    "GraphSection",
    "SlopeData",
    "InducedMetric",
    "slopes",
    "induced_metric",
    "pullback_determinant",
    "area",
    "el_residual",
    "first_variation",
    "first_variations",
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

#: why the residual map skips a point: skip code k means ``_SKIP_REASONS[k - 1]``,
#: code 0 that the point was evaluated. Each of the two steps takes its first reason
#: in this (priority) order, and a point reports the coarse step's reason if it has
#: one, else the fine step's, so a coarse reason wins over a higher-priority fine one
_SKIP_REASONS = ("degenerate", "det_sign_change", "lam_sign_change")
#: step in ``t`` of the first variation's symmetric differences
T_STEP = 1e-5
#: the first variation's four values of ``t`` (the real arms of the difference rule),
#: one per leading axis of its shifted area sums
_T_ARMS = (np.real(_ARMS[:4]) * T_STEP)[:, None, None]
#: relative step of the residual's stencil: h = RESIDUAL_STEP max(1, |xi|)
RESIDUAL_STEP = 1e-6
#: points per block of a residual sweep, which bounds its peak memory: a block's
#: 9-point stencil holds under half the points of one 5-point stencil on 64 x 64 nodes
_RESIDUAL_BLOCK = 1024
#: the residual's stencil in units of its step h: the centre, then the arms of the
#: difference rule; each row of ``_STEPS`` picks one step's 5-point stencil (centre,
#: +1, -1, +i, -i) out of it
_STENCIL = np.array((0.0, *_ARMS))
_STEPS = np.array([[0, 1, 2, 5, 6], [0, 3, 4, 7, 8]])


class SurfaceClass(enum.Enum):
    RIEMANNIAN = "riemannian"
    LORENTZ = "lorentz"
    DEGENERATE = "degenerate"
    TOTALLY_NULL = "totally_null"

    def __str__(self) -> str:  # CSV-friendly
        return self.value


class GraphSection(NamedTuple):
    """A fibre coordinate ``F`` over a base geometry."""

    F: ComplexField
    geometry: ConformalGeometry

    def point(self, xi: complex) -> TangentPoint:
        return TangentPoint(xi, self.F(xi))


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


class SlopeData(NamedTuple):
    """Slope invariants of a graph at one point, or elementwise at an array of points."""

    sigma: complex
    rho: complex

    @property
    def lam(self):
        return self.rho.imag

    @property
    def det_factor(self):
        lam = self.lam
        return lam * lam - _abs2(self.sigma)

    @property
    def degenerate(self):
        """``det_factor`` is zero relative to the slope scale."""
        lam = self.lam
        lam2 = lam * lam
        ss = _abs2(self.sigma)
        return abs(lam2 - ss) < DEGENERACY_RTOL * (lam2 + ss + DEGENERACY_SCALE_FLOOR)

    def classify(self):
        """The causal class at a point; an object array of classes on arrays."""
        degenerate = self.degenerate
        null = (abs(self.sigma) < NULL_ATOL) & (abs(self.lam) < NULL_ATOL)
        definite = np.where(self.det_factor > 0.0, SurfaceClass.RIEMANNIAN, SurfaceClass.LORENTZ)
        return np.where(degenerate, np.where(null, SurfaceClass.TOTALLY_NULL,
                                             SurfaceClass.DEGENERATE), definite)[()]


class InducedMetric(NamedTuple):
    """Induced metric of a graph at one point, ``(xi, xibar)`` components."""

    matrix: np.ndarray
    determinant: float
    classification: SurfaceClass


def _jet_slopes(jet, du) -> tuple:
    """``(sigma, rho)`` from a field's jet ``(F, dF, dbarF)`` and the geometry's ``du`` at
    the same points: the one slope formula, elementwise (a constant may stay scalar)."""
    f, d, dbar = jet
    return -dbar.conjugate(), d + 2.0 * f * du


def _shaped(v, shape: tuple) -> np.ndarray:
    """``v`` as a read-only array of ``shape``: a view of an array already of that
    shape, otherwise ``v`` (a scalar, as a constant field or geometry returns) broadcast."""
    if isinstance(v, np.ndarray) and v.shape == shape:
        v = v.view()
        v.setflags(write=False)
        return v
    return np.broadcast_to(v, shape)


def slopes(section: GraphSection, xi) -> SlopeData:
    """Evaluate the slope invariants at ``xi`` from one jet of the field and one ``du``
    of the geometry: Python scalars at a Python point; on an array of points, both
    slopes as read-only arrays shaped like ``xi`` (views where the formula already gave
    that shape, broadcast where a constant field or geometry leaves one scalar)."""
    sigma, rho = _jet_slopes(section.F.jet(xi), section.geometry.du(xi))
    if isinstance(xi, np.ndarray):
        return SlopeData(_shaped(sigma, xi.shape), _shaped(rho, xi.shape))
    return SlopeData(sigma, rho)


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


def _jacobian(xi, fx, fy) -> np.ndarray:
    """Jacobian ``(..., 4, 2)`` of the graph map ``(x, y) -> (x, y, Re F, Im F)`` at the
    points ``xi`` (4x2 at one point) from F's partials ``fx``, ``fy`` (scalar if constant)."""
    jac = np.zeros(np.shape(xi) + (4, 2))
    jac[..., 0, 0] = jac[..., 1, 1] = 1.0
    jac[..., 2, 0], jac[..., 2, 1] = fx.real, fy.real
    jac[..., 3, 0], jac[..., 3, 1] = fx.imag, fy.imag
    return jac


def pullback_determinant(section: GraphSection, xi):
    """Determinant of the ambient metric pulled back through the graph map,
    converted to the ``(xi, xibar)`` convention; elementwise in ``xi``. The Jacobian
    differences F's values (:func:`numerics._plane_partials`) and never reads its jet,
    so the pullback stays an independent check on the slope formulas."""
    frame = ambient_frame(section.geometry, section.point(xi))
    jac = _jacobian(xi, *_plane_partials(section.F, xi))
    return np.linalg.det(np.swapaxes(jac, -1, -2) @ frame.G4 @ jac) / PULLBACK_DET_FACTOR


def _node_geometry(geometry: ConformalGeometry, grid: AnnulusGrid):
    """``du`` and ``e^{2u}`` (shaped like the nodes) at the grid's Gauss nodes, each
    evaluated once for all the fields of one quadrature call."""
    xi = grid.xi_nodes
    return geometry.du(xi), _shaped(geometry.conformal_factor(xi), xi.shape)


def _slope_table(field: ComplexField, du, grid: AnnulusGrid, w=None) -> tuple:
    """``Re sigma``, ``Im sigma`` and ``lam`` of ``field`` at every Gauss node, read-only
    arrays indexed ``[radial node, angle]``, from one jet and the geometry's node ``du``;
    checked, with ``e^{2u}`` where ``w`` is given, by :func:`numerics._require_finite`."""
    xi = grid.xi_nodes
    sigma, rho = (_shaped(v, xi.shape) for v in _jet_slopes(field.jet(xi), du))
    lam = rho.imag
    finite = np.isfinite(sigma) & np.isfinite(lam)
    _require_finite(finite if w is None else finite & np.isfinite(w), grid)
    return sigma.real, sigma.imag, lam


def _area_from_slopes(re, im, lam, w: np.ndarray, grid: AnnulusGrid):
    """Area from node tables (arrays) of ``Re sigma``, ``Im sigma`` and ``lam``: the one
    area density, ``2 sqrt|lam^2 - |sigma|^2| e^{2u}``; leading axes (one per ``t``)
    are kept. After its first product the density is worked in its own buffer."""
    density = lam * lam
    norm = re * re
    norm += im * im
    density -= norm
    np.sqrt(np.abs(density, out=density), out=density)
    density *= 2.0
    return _node_sum(density * w, grid)


def area(section: GraphSection, grid: AnnulusGrid) -> float:
    """Induced area ``∫∫ |det_factor|^{1/2} e^{2u} * 2 dx dy`` over the annulus.

    The normalisation fixes ``|dxi ^ dxibar| = 2 dx ^ dy``; stationarity
    statements do not depend on it, absolute values do.
    """
    du, w = _node_geometry(section.geometry, grid)
    return float(_area_from_slopes(*_slope_table(section.F, du, grid, w), w, grid))


def _residual_map(section: GraphSection, xi):
    """``el_residual`` at every point of ``xi`` (``nan`` where skipped), the skip
    codes and the slopes at ``xi``, shaped like ``xi``; more than
    ``_RESIDUAL_BLOCK`` points go through in blocks. Fewer go through as one block,
    unsplit: the split and the concatenation would make ``el_residual`` at one
    point about 1.5 times as slow."""
    if np.size(xi) <= _RESIDUAL_BLOCK:
        value, code, sigma, rho = _residual_block(section, xi)
    else:
        blocks = np.array_split(np.ravel(xi), -(-np.size(xi) // _RESIDUAL_BLOCK))
        parts = zip(*(_residual_block(section, block) for block in blocks))
        value, code, sigma, rho = (np.concatenate(part).reshape(np.shape(xi)) for part in parts)
    return value, code, SlopeData(sigma, rho)


def _residual_block(section: GraphSection, xi):
    """:func:`_residual_map` from one ``slopes`` call on the ``9 x shape(xi)`` stencil,
    whose centre row (offset 0) gives the slopes at ``xi``."""
    # slope fields steepen like (R - R0)^{-1/2} near zeros of the squared
    # imaginary part, so the step is small: the slopes come from closed-form
    # jets, and the difference noise stays near 1e-10
    h = RESIDUAL_STEP * np.maximum(1.0, abs(xi))
    z = xi + _STENCIL.reshape((9,) + (1,) * np.ndim(xi)) * h
    sl = slopes(section, z)
    lam, det = sl.lam, sl.det_factor

    def mixed(v):  # per step, some but not all of its five stencil values are negative
        neg = np.signbit(v)[_STEPS]
        return neg.any(axis=1) & ~neg.all(axis=1)

    code = np.where(sl.degenerate[_STEPS].any(axis=1), 1,
                    np.where(mixed(det), 2, np.where((det[0] > 0.0) & mixed(lam), 3, 0)))
    code = np.where(code[0] != 0, code[0], code[1])  # the coarse step's code comes first

    w = np.broadcast_to(section.geometry.conformal_factor(z), z.shape)
    with np.errstate(divide="ignore", invalid="ignore"):  # at skipped points only
        root = np.sqrt(np.abs(det))
        px, py = _richardson((lam / root)[1:], h)
        qx, qy = _richardson((sl.sigma * w / root)[1:], h)
        d_p, dbar_q = 0.5 * (px - 1j * py), 0.5 * (qx + 1j * qy)
        value = np.where(code == 0, 1j * d_p - dbar_q / w[0], np.nan)
    # copies, so that a block's stencil arrays are freed before the next block
    return value, code, sl.sigma[0].copy(), sl.rho[0].copy()


def el_residual(section: GraphSection, xi: complex) -> complex:
    """Area-stationarity residual at ``xi``; zero on stationary graphs.

    The Richardson rule of ``numerics._richardson`` differentiates ``p``
    and ``q``; it removes the leading truncation term, which matters where
    the slope fields steepen near zeros of the squared imaginary part. Raises
    :class:`SingularResidualError` when ``det_factor`` is degenerate or
    changes sign on the stencil, or when ``lam`` changes sign while the
    metric is definite (the square-root branch would jump); its ``reason``
    names which.
    """
    value, code, _ = _residual_map(section, xi)
    if code:
        reason = _SKIP_REASONS[int(code) - 1]
        raise SingularResidualError(f"residual undefined at xi={xi} ({reason} stencil)", reason)
    return value[()]


def radial_bump(r_lo: float, r_hi: float) -> Callable:
    """A C^2 hat supported on ``[r_lo, r_hi]``, peak value 1, as its jet
    ``r -> (phi, phi')``, both computed from one ``s`` clipped to ``[0, 1]``.

    The profile ``(4 s (1-s))^3`` vanishes with its first two derivatives
    at ``s = 0`` and ``s = 1``, so the clipping gives the zero outside the
    support, and bumps qualify as admissible variations.
    """
    width = r_hi - r_lo

    def jet(r):
        s = np.clip((r - r_lo) / width, 0.0, 1.0)
        return (4.0 * s * (1.0 - s)) ** 3, 192.0 * (s * (1.0 - s)) ** 2 * (1.0 - 2.0 * s) / width

    return jet


def _angular_field(g: Callable, g_jet: Callable, k: int) -> ComplexField:
    """The angular mode ``g(R) e^{i k theta}``; ``g_jet(R)`` returns ``(g, g')``, so
    its jet evaluates the radial profile once. The closed Wirtinger derivatives

        d    = e^{i (k-1) theta} (g' + k g / R) / 2,
        dbar = e^{i (k+1) theta} (g' - k g / R) / 2,

    are written with the phase ``xi / R`` so that ``k = 1`` needs no power
    beyond the exact ``phase**0`` and ``xi**1``.
    """

    def radius(xi):
        r = abs(xi)
        if np.count_nonzero(r) != np.size(r):  # a zero radius; nan counts as nonzero
            raise DomainError("angular mode undefined at xi = 0")
        return r

    def value(g_r, xi, r):
        # a named power: numpy computes ``g * <temporary>`` on large arrays in place with
        # the operands swapped, and its complex product is not commutative to the last bit
        power = xi**k
        return g_r * power / r**k

    def ev(xi):
        r = radius(xi)
        return value(g(r), xi, r)

    def jet(xi):
        r = radius(xi)
        g_r, dg = g_jet(r)
        phase, kg = xi / r, k * g_r / r
        return (value(g_r, xi, r), 0.5 * phase ** (k - 1) * (dg + kg),
                0.5 * phase ** (k + 1) * (dg - kg))

    return ComplexField(ev, jet)


def bump_basis(
    r_lo: float, r_hi: float, ks: Sequence[int] = (0, 1, -1, 2, -2)
) -> list[ComplexField]:
    """Compactly supported variation bumps: radial hat times ``e^{i k theta}``,
    applied separately to the real and imaginary parts of the perturbation."""
    phi = radial_bump(r_lo, r_hi)
    jets = (phi, lambda r: tuple(1j * v for v in phi(r)))
    return [_angular_field(lambda r, j=j: j(r)[0], j, k) for k in ks for j in jets]


def first_variations(
    section: GraphSection, bumps: Sequence[ComplexField], grid: AnnulusGrid
) -> np.ndarray:
    """Derivative of the area along ``F + t * bump`` at ``t = 0``, one per bump.

    The Richardson rule of ``numerics._richardson`` in ``t``. The slopes
    are real-linear in the field, ``sigma(F + t b) = sigma(F) + t sigma(b)``
    and likewise ``lam``, so each bump's four shifted areas are sums over
    the same per-node density that ``area`` reads, taken in real arithmetic
    (``Re sigma``, ``Im sigma``, ``lam``). One call reads the geometry once
    (``e^{2u}`` and ``du`` on the grid's Gauss nodes) and each field's jet
    once, F's and one per bump. This is the independent stationarity
    oracle: it shares nothing with ``el_residual`` and does no spatial
    differencing.
    """
    du, w = _node_geometry(section.geometry, grid)
    re, im, lam = _slope_table(section.F, du, grid, w)

    def shifted(v, v_b):  # v + t v_b for each t, in one new buffer
        out = _T_ARMS * v_b
        out += v
        return out

    def variation(bump: ComplexField):
        re_b, im_b, lam_b = _slope_table(bump, du, grid)
        areas = _area_from_slopes(shifted(re, re_b), shifted(im, im_b), shifted(lam, lam_b),
                                  w, grid)
        return _richardson(areas, T_STEP)[0]

    return np.array([variation(bump) for bump in bumps], dtype=float)


def first_variation(section: GraphSection, bump: ComplexField, grid: AnnulusGrid) -> float:
    """:func:`first_variations` along one bump."""
    return float(first_variations(section, (bump,), grid)[0])


def stokes_check(
    section: GraphSection, grid: AnnulusGrid, n_boundary: int = 512
) -> tuple[float, float]:
    """Integral of the pulled-back symplectic form vs. its boundary primitive.

    Returns ``(interior, boundary)`` where ``interior`` integrates the
    pullback of Omega over the annulus graph and ``boundary`` is the
    circulation of the primitive 1-form along the outer circle minus the
    inner circle. Exactness of Omega makes the two agree. Each side is one
    array evaluation: the section's jet and ``O4`` on all Gauss nodes, with no
    difference (``F_x = dF + dbarF``, ``F_y = i (dF - dbarF)``, so a ``dF`` that
    disagrees with F shows), and ``theta_form`` on F at the boundary angles.
    """
    xi = grid.xi_nodes
    f, d, dbar = section.F.jet(xi)
    eta = _shaped(f, xi.shape)
    _require_finite(np.isfinite(eta), grid)
    O4 = ambient_frame(section.geometry, TangentPoint(xi, eta)).O4
    jac = _jacobian(xi, d + dbar, 1j * (d - dbar))
    density = (jac[..., None, :, 0] @ O4 @ jac[..., :, 1:])[..., 0, 0]
    _require_finite(np.isfinite(density), grid)
    interior = float(_node_sum(density, grid))

    def circulation(r: float) -> float:
        def integrand(t):
            th = theta_form(section.geometry, section.point(_polar(r, t)))
            tangent = np.zeros(t.shape + (4,))
            tangent[..., 0], tangent[..., 1] = -r * np.sin(t), r * np.cos(t)
            return th(tangent)

        return integrate_circle(integrand, n_boundary)

    boundary = circulation(grid.r_max) - circulation(grid.r_min)
    return interior, boundary


def _coefficient_matrix(coeffs: dict[tuple[int, int], complex]) -> np.ndarray:
    """``C[m, n] = coeffs[(m, n)]``, zero elsewhere (``[[0]]`` for ``{}``); a negative
    exponent would wrap to the last row or column, so it raises ``DomainError``."""
    ms, ns = zip(*coeffs) if coeffs else ((0,), (0,))
    if not all(isinstance(k, (int, np.integer)) and k >= 0 for k in ms + ns):
        raise DomainError(f"exponents must be non-negative integers, got {list(coeffs)}")
    C = np.zeros((max(ms) + 1, max(ns) + 1), dtype=complex)
    for key, c in coeffs.items():
        C[key] = c
    return C


def _evaluator(C: np.ndarray) -> Callable:
    """``xi -> sum C[m, n] xi^m xibar^n`` by Horner's rule: each row of ``C`` in
    ``xibar``, then the row values in ``xi``."""
    rows = [row[::-1] for row in C.tolist()[::-1]]  # highest powers first

    def evaluate(xi):
        xb = xi.conjugate()
        value = 0j
        for row in rows:
            row_value = row[0]
            for c in row[1:]:
                row_value = row_value * xb + c
            value = value * xi + row_value
        return value

    return evaluate


def _wirtinger(C: np.ndarray, axis: int) -> np.ndarray:
    """``d`` (axis 0) or ``dbar`` (axis 1) of ``sum C[m, n] xi^m xibar^n``: the exponent
    times ``C``, shifted down one place along its axis (``[[0]]`` if nothing is left)."""
    m, n = np.indices(C.shape, sparse=True)
    lowered = ((m, n)[axis] * C).swapaxes(0, axis)[1:].swapaxes(0, axis)
    return lowered if lowered.size else np.zeros((1, 1), dtype=complex)


def _matrix_section(geometry: ConformalGeometry, C: np.ndarray) -> GraphSection:
    """The section ``F = sum C[m, n] xi^m xibar^n``; its jet is three Horner evaluations."""
    F, d, dbar = _evaluator(C), _evaluator(_wirtinger(C, 0)), _evaluator(_wirtinger(C, 1))
    return GraphSection(ComplexField(F, lambda xi: (F(xi), d(xi), dbar(xi))), geometry)


def polynomial_section(
    geometry: ConformalGeometry, coeffs: dict[tuple[int, int], complex]
) -> GraphSection:
    """Section with ``F = sum c_{mn} xi^m xibar^n`` (exponents ``m, n >= 0``
    integers) and exact derivatives."""
    return _matrix_section(geometry, _coefficient_matrix(coeffs))


def lagrangian_section(
    geometry: ConformalGeometry, potential: dict[tuple[int, int], complex]
) -> GraphSection:
    """The gradient-type section ``F = e^{-2u} dbar(h)`` of a real potential h.

    ``potential`` holds monomial coefficients of h, symmetrised as
    ``(H + H^H) / 2`` so that h is real. Then ``F e^{2u} = dbar h``, so
    ``rho = e^{-2u} d dbar h = e^{-2u} Laplacian(h) / 4`` is real and
    ``lam = 0`` identically; the primitive 1-form pulls back to ``dh``.
    Supported on a geometry whose ``e^{-2u}`` is a polynomial in ``xi, xibar``
    (``V``, its ``inverse_factor``; ``(1 + xi xibar)^2 / 4`` on the sphere), so F
    is a polynomial section; any other geometry raises ``UnsupportedGeometryError``.
    """
    if geometry.inverse_factor is None:
        raise UnsupportedGeometryError(
            f"gradient sections need a polynomial e^(-2u); geometry '{geometry.name}'"
        )
    V = np.array(geometry.inverse_factor)
    H = _coefficient_matrix(potential)
    H = np.pad(H, [(0, max(H.shape) - size) for size in H.shape])
    G = _wirtinger(0.5 * (H + H.conj().T), 1)  # dbar h
    C = np.zeros(np.add(G.shape, V.shape) - 1, dtype=complex)
    for p, q in zip(*np.nonzero(V)):  # C = G V, a product of polynomials
        C[p:p + G.shape[0], q:q + G.shape[1]] += V[p, q] * G
    return _matrix_section(geometry, C)


def conjugate_section(section: GraphSection) -> GraphSection:
    """The section ``xi -> conj(F(conj xi))`` over the reflected geometry.

    The stationarity residual of the conjugated section at ``xi`` is the
    conjugate of the original residual at ``conj(xi)``. The reflected
    ``e^{-2u}`` swaps the exponents of ``xi`` and ``xibar``: its coefficients
    are the transpose of the original's.
    """
    F, geom = section.F, section.geometry
    V = geom.inverse_factor
    refl = ConformalGeometry(
        name=geom.name + "~",
        u=lambda xi: geom.u(xi.conjugate()),
        du=lambda xi: geom.du(xi.conjugate()).conjugate(),
        u_of_R=geom.u_of_R,
        inverse_factor=None if V is None else tuple(zip(*V)),
    )
    field = ComplexField(lambda xi: F(xi.conjugate()).conjugate(),
                         lambda xi: tuple(v.conjugate() for v in F.jet(xi.conjugate())))
    return GraphSection(field, refl)


def export_classification_csv(section: GraphSection, grid: AnnulusGrid, path) -> int:
    """Write the slope/classification map on the grid lattice; returns row count."""
    rs, ts = grid._lattice()
    xi = _polar(rs, ts)
    values, _, sl = _residual_map(section, xi)
    return _write_classification_csv(path, rs, ts, sl, np.abs(values), sl.classify())


def _write_classification_csv(path, rs, ts, sl: SlopeData, residual, classes) -> int:
    """Write lattice columns already computed (radii, angles, slopes, |residual|, classes);
    returns the rows written."""
    names = {c: str(c) for c in SurfaceClass}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("R,theta,re_sigma,im_sigma,lambda,det_factor,abs_residual,class\n")
        return _write_rows(fh, "", ",", (rs, ts, sl.sigma.real, sl.sigma.imag, sl.lam,
                                         sl.det_factor, residual),
                           [list(map(names.__getitem__, classes.tolist()))])
