"""Rotationally symmetric graphs and their stationarity ODEs.

Over a rotationally symmetric base (``u = u(R)``), a rotationally
symmetric graph has the form ``F = G(R) e^{i theta}`` and splits into a
real part ``H(R)`` and an imaginary part ``+- sqrt(Psi(R))``. Requiring
area-stationarity turns into a pair of coupled second-order ODEs,

    Psi'' + p1 Psi' + q1 Psi = L1        Psi'' + p2 Psi' + q2 Psi = L2,

where dots are R-derivatives and (with ``D = 1 + R u'``)

    p1 = -(1 + R^2 (u'' - 2 u'^2)) / (R D)
    q1 = -2 (u' - R (u'' - 2 u'^2)) / (R D)
    L1 = (R H' - H) / (R^2 D^2) * [ R^2 D H'' - (1 + 2 R u' + R^2 u'') (R H' - H) ]
    p2 = -2 R H'' / (R H' - H) - (3 + 4 R u' - R^2 (u'' - 2 u'^2)) / (R D)
    q2 = -4 R u' H'' / (R H' - H)
         - 2 (3 u' + R (6 u'^2 - u'') - 2 R^2 (u'' - 2 u'^2) u') / (R D)
    L2 = -2 (R H' - H)^2 / R^2.

The homogeneous solutions of the first equation are ``R^2`` and
``e^{-2u}``; reduction of order recovers the second from the first.
Variation of parameters yields the closed-form solution

    Psi = A2 R^2 + B2 e^{-2u} + e^{-2u} * int (R H' - H)^2 e^{2u} / (2 R D) dR,

and the companion H-equation then forces ``H = A1 R + B1 e^{-2u} / R``,
with the integral collapsing to ``-B1^2 e^{-4u} / R^2``. The resulting
four-parameter family (``A2 != 0``) exhausts the rotationally symmetric
area-stationary graphs; its slope determinant is ``A2 (1 + R u')^2``
pointwise, so the sign of ``A2`` fixes the causal class of the whole
surface. For ``A2 = 0`` the same integral formula produces graphs whose
induced metric is degenerate everywhere (``lam^2 = sigma sigmabar``).

All indefinite integrals are cumulative quadratures anchored at the left
end of the declared domain; the resulting constant shifts are absorbed
into ``B2`` (or the homogeneous multiple, for reduction of order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .ambient import ConformalGeometry
from .errors import (
    DegenerateFamilyRedirect,
    DomainError,
    EmptyDomainError,
    SingularCoefficientError,
)
from .graphs import GraphSection, _angular_field
from .numerics import CumulativeIntegral, RadialFunction, _first_where

__all__ = [
    "FamilyParams",
    "OdeCoefficients",
    "RotSymProfile",
    "ode_coefficients",
    "reduction_of_order",
    "psi_closed_form",
    "stationary_family",
    "degenerate_family",
    "ode_residuals",
]

#: threshold on |1 + R u'| below which the ODE coefficients are singular
COEFF_SINGULAR_ATOL = 1e-10
#: threshold on |R H' - H| below which p2, q2 are undefined
SOURCE_SINGULAR_ATOL = 1e-12
#: |1 + R u'| that ``comfortable_range`` keeps from a domain edge on that factor's
#: zero: on seeded round-sphere families the lattice residual there stays below
#: 2e-7, and every edge of the sphere's draw range (0.15, 0.95) is above it (0.051)
NULL_CIRCLE_STANDOFF = 0.02


class FamilyParams(NamedTuple):
    """Constants of the closed-form stationary family."""

    a1: float = 0.0
    b1: float = 0.0
    a2: float = 1.0
    b2: float = 0.0


class OdeCoefficients(NamedTuple):
    """Values of the six ODE coefficient functions, elementwise in the radius:
    each field has the shape of the radii it was evaluated on.

    ``p2`` and ``q2`` are ``nan`` where ``R H' - H = 0`` (the second
    equation degenerates there; both sources still vanish).
    """

    p1: float
    q1: float
    L1: float
    p2: float
    q2: float
    L2: float


def _even_quartic(c0: float, c1: float, c2: float) -> RadialFunction:
    """``Psi = c0 + c1 R^2 + c2 R^4`` with both derivatives."""
    return RadialFunction(
        lambda r: c0 + c1 * r * r + c2 * r**4,
        lambda r: 2.0 * c1 * r + 4.0 * c2 * r**3,
        lambda r: 2.0 * c1 + 12.0 * c2 * r * r,
    )


def _require_nonsingular(d, r) -> None:
    """Raise at the first radius (row-major) where ``d = 1 + R u'`` vanishes."""
    # the builtin abs and a count: at one radius, np.abs and np.any cost ten times more
    singular = abs(d) <= COEFF_SINGULAR_ATOL
    if np.count_nonzero(singular):
        _, d0, r0 = _first_where(singular, d, r)
        raise SingularCoefficientError(f"1 + R u'(R) = {d0:.3e} at R = {r0}")


def ode_coefficients(geom: ConformalGeometry, H: RadialFunction, r) -> OdeCoefficients:
    """Evaluate the coefficient functions of both stationarity ODEs,
    elementwise in the radii ``r``."""
    nonpositive = np.logical_not(r > 0.0)  # so that a NaN radius is not positive either
    if np.count_nonzero(nonpositive):
        raise DomainError(f"radius must be positive, got {_first_where(nonpositive, r)[1]}")
    ud = geom.radial_du(r)
    udd = geom.radial_ddu(r)
    d = 1.0 + r * ud
    _require_nonsingular(d, r)

    k = udd - 2.0 * ud * ud
    p1 = -(1.0 + r * r * k) / (r * d)
    q1 = -2.0 * (ud - r * k) / (r * d)

    h = H(r)
    hd = H.deriv(r, 1)
    hdd = H.deriv(r, 2)
    g = r * hd - h
    L1 = g / (r * r * d * d) * (r * r * d * hdd - (1.0 + 2.0 * r * ud + r * r * udd) * g)
    L2 = -2.0 * g * g / (r * r)

    undefined = abs(g) <= SOURCE_SINGULAR_ATOL * np.maximum(1.0, np.maximum(abs(r * hd), abs(h)))
    # [()] turns the 0-d result at a scalar radius back into a scalar, whose
    # arithmetic costs less than that of a 0-d array
    g = np.where(undefined, 1.0, g)[()]
    p2 = -2.0 * r * hdd / g - (3.0 + 4.0 * r * ud - r * r * k) / (r * d)
    q2 = -4.0 * r * ud * hdd / g - 2.0 * (
        3.0 * ud + r * (6.0 * ud * ud - udd) - 2.0 * r * r * k * ud
    ) / (r * d)
    p2, q2 = np.where(undefined, np.nan, (p2, q2))
    return OdeCoefficients(p1=p1, q1=q1, L1=L1, p2=p2, q2=q2, L2=L2)


def reduction_of_order(
    p: Callable,
    psi1: RadialFunction,
    r_range: tuple[float, float],
    n_quad: int = 256,
) -> RadialFunction:
    """Second homogeneous solution from a known one.

    Given a solution ``psi1`` of ``psi'' + p psi' + q psi = 0``, returns

        psi2(R) = psi1(R) * int_a^R psi1^{-2} e^{-P},   P(R) = int_a^R p,

    with both integrals anchored at the left end of ``r_range`` (so the
    answer is normalised by ``e^{-P(a)} = 1`` and defined up to adding a
    multiple of ``psi1``). The Wronskian ``psi1 psi2' - psi2 psi1'``
    equals ``e^{-P}`` identically. ``p`` and ``psi1`` are elementwise.
    """
    a, b = r_range
    samples = np.linspace(a, b, 101)
    vals = np.broadcast_to(psi1(samples), samples.shape)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if np.min(np.abs(vals)) < 1e-12 * scale or np.any(np.sign(vals[:-1]) != np.sign(vals[1:])):
        raise DomainError("psi1 vanishes inside the reduction range")

    P = CumulativeIntegral(p, a, b, n_quad)

    def integrand(r):
        return np.exp(-P(r)) / psi1(r) ** 2

    Q = CumulativeIntegral(integrand, a, b, n_quad)

    def f(r):
        return psi1(r) * Q(r)

    def df(r):
        return psi1.deriv(r, 1) * Q(r) + psi1(r) * integrand(r)

    return RadialFunction(f, df)


def _radial_v(geom: ConformalGeometry) -> Callable:
    return lambda r: np.exp(-2.0 * geom.radial_u(r))


def _source_J(geom: ConformalGeometry, H: RadialFunction) -> Callable:
    """The inhomogeneous integrand ``(R H' - H)^2 e^{2u} / (2 R (1 + R u'))``."""

    def J(r):
        d = 1.0 + r * geom.radial_du(r)
        _require_nonsingular(d, r)
        g = r * H.deriv(r, 1) - H(r)
        return g * g * np.exp(2.0 * geom.radial_u(r)) / (2.0 * r * d)

    return J


def psi_closed_form(
    geom: ConformalGeometry,
    H: RadialFunction,
    a2: float,
    b2: float,
    r_range: tuple[float, float],
    n_quad: int = 256,
) -> RadialFunction:
    """The squared imaginary part ``Psi = a2 R^2 + e^{-2u} (b2 + I)`` solving the
    first stationarity ODE, with ``I' = J`` a cumulative quadrature from the
    left end of ``r_range``: the constant this leaves is a shift of ``b2``, so
    compare with closed forms modulo that shift. ``Psi'`` and ``Psi''`` are
    assembled from the analytic pieces, exact functions of the integral."""
    a, b = r_range
    J = _source_J(geom, H)
    # probe the path, ends included, so singular geometry fails at construction
    J(np.linspace(a, b, 257))
    I = CumulativeIntegral(J, a, b, n_quad)
    v = _radial_v(geom)

    def f(r):
        return a2 * r * r + v(r) * (b2 + I(r))

    def df(r):
        ud = geom.radial_du(r)
        return 2.0 * a2 * r - 2.0 * ud * v(r) * (b2 + I(r)) + v(r) * J(r)

    def d2f(r):
        ud = geom.radial_du(r)
        udd = geom.radial_ddu(r)
        g = r * H.deriv(r, 1) - H(r)
        jv = J(r)
        d = 1.0 + r * ud
        # J = 0 where g = 0, so dividing by 1 there makes dJ = 0
        dj = jv * (
            2.0 * r * H.deriv(r, 2) / np.where(g != 0.0, g, 1.0)
            + 2.0 * ud
            - (1.0 + 2.0 * r * ud + r * r * udd) / (r * d)
        )
        return (
            2.0 * a2
            + 2.0 * v(r) * (2.0 * ud * ud - udd) * (b2 + I(r))
            - 4.0 * ud * v(r) * jv
            + v(r) * dj
        )

    return RadialFunction(f, df, d2f)


@dataclass(frozen=True)
class RotSymProfile:
    """A rotationally symmetric graph ``F = (H + branch * i sqrt(Psi)) e^{i theta}``."""

    geometry: ConformalGeometry
    H: RadialFunction
    psi: RadialFunction
    branch: int
    domain: tuple[float, float]

    def __post_init__(self):
        if self.branch not in (1, -1):
            raise DomainError(f"branch must be +1 or -1, got {self.branch}")
        lo, hi = self.domain
        if not 0.0 < lo < hi:
            raise DomainError(f"invalid radial domain {self.domain}")
        worst = float(np.min(self.psi(np.linspace(lo, hi, 101))))
        if worst < -1e-12 * max(1.0, abs(worst)):
            raise DomainError(f"Psi < 0 inside the declared domain (min {worst:.3e})")

    def W(self, r):
        return np.sqrt(np.maximum(self.psi(r), 0.0))

    def G(self, r, w=None):
        """``H + i branch W`` at ``r``, given ``w = W(r)`` if it is known."""
        return self.H(r) + 1j * (self.branch * (self.W(r) if w is None else w))

    def G_jet(self, r):
        """``(G, G')`` at ``r``, from one evaluation each of ``Psi``, ``Psi'``, ``H`` and ``H'``."""
        w = self.W(r)
        zero = w == 0.0
        if np.any(zero):
            _, r0 = _first_where(zero, r)
            raise DomainError(f"profile derivative undefined where Psi = 0 (R = {r0})")
        dG = self.H.deriv(r, 1) + 1j * (self.branch * self.psi.deriv(r, 1) / (2.0 * w))
        return self.G(r, w), dG

    def section(self) -> GraphSection:
        return GraphSection(_angular_field(self.G, self.G_jet, 1), self.geometry)


def _closed_family_profiles(
    geom: ConformalGeometry, params: FamilyParams
) -> tuple[RadialFunction, RadialFunction]:
    """Closed-form ``H`` and ``Psi`` (with derivatives) of the stationary family."""
    a1, b1, a2, b2 = params.a1, params.b1, params.a2, params.b2
    v = _radial_v(geom)

    def H(r):
        return a1 * r + b1 * v(r) / r

    def dH(r):
        ud = geom.radial_du(r)
        return a1 - b1 * v(r) * (1.0 + 2.0 * r * ud) / (r * r)

    def d2H(r):
        ud = geom.radial_du(r)
        udd = geom.radial_ddu(r)
        return (
            2.0
            * b1
            * v(r)
            * ((1.0 + 2.0 * r * ud) / r**3 + (2.0 * ud * ud - udd) / r)
        )

    def psi(r):
        vr = v(r)
        return a2 * r * r + b2 * vr - b1 * b1 * vr * vr / (r * r)

    def dpsi(r):
        ud = geom.radial_du(r)
        vr = v(r)
        return (
            2.0 * a2 * r
            - 2.0 * b2 * ud * vr
            + 2.0 * b1 * b1 * vr * vr * (1.0 + 2.0 * r * ud) / r**3
        )

    def d2psi(r):
        ud = geom.radial_du(r)
        udd = geom.radial_ddu(r)
        vr = v(r)
        return (
            2.0 * a2
            - 2.0 * b2 * vr * (udd - 2.0 * ud * ud)
            + 2.0
            * b1
            * b1
            * vr
            * vr
            * (
                (2.0 * r * udd - 8.0 * r * ud * ud - 2.0 * ud) / r**3
                - (3.0 + 6.0 * r * ud) / r**4
            )
        )

    return RadialFunction(H, dH, d2H), RadialFunction(psi, dpsi, d2psi)


def _trim_domain(
    geom: ConformalGeometry, psi: RadialFunction, r_range: tuple[float, float]
) -> tuple[float, float]:
    """Largest subinterval of ``r_range`` with ``Psi >= 0`` and ``1 + R u' != 0``:
    a run of admissible nodes ends at a node where ``1 + R u'`` nearly vanishes
    and between two nodes where it changes sign, so no run crosses its zero."""
    lo, hi = r_range
    if not 0.0 < lo < hi:
        raise DomainError(f"invalid requested range {r_range}")
    rs = np.linspace(lo, hi, 2001)
    d = 1.0 + rs * geom.radial_du(rs)
    ok = (psi(rs) >= 0.0) & (abs(d) > COEFF_SINGULAR_ATOL)
    # a run goes on from a node to the next where both are admissible and 1 + R u'
    # keeps its sign; runs are [starts[k], stops[k]), and the first longest is taken
    goes_on = ok[:-1] & ok[1:] & (np.signbit(d[:-1]) == np.signbit(d[1:]))
    starts = np.flatnonzero(ok & ~np.concatenate([[False], goes_on]))
    stops = np.flatnonzero(ok & ~np.concatenate([goes_on, [False]])) + 1
    if starts.size == 0 or np.max(stops - starts) < 2:
        raise EmptyDomainError(f"no admissible subinterval of {r_range}")
    best = np.argmax(stops - starts)
    return float(rs[starts[best]]), float(rs[stops[best] - 1])


def stationary_family(
    geom: ConformalGeometry,
    params: FamilyParams,
    branch: int = 1,
    r_range: tuple[float, float] = (0.1, 10.0),
) -> RotSymProfile:
    """The closed-form rotationally symmetric area-stationary family.

    The declared domain is the largest subinterval of ``r_range`` on which
    ``Psi >= 0`` and the coefficient factor ``1 + R u'`` does not vanish
    (on the round sphere that factor has a zero at ``R = 1``, splitting
    every requested range that contains it).
    """
    geom.require_radial()
    if params.a2 == 0.0:
        raise DegenerateFamilyRedirect(
            "a2 = 0 produces a degenerate surface; use degenerate_family"
        )
    H, psi = _closed_family_profiles(geom, params)
    domain = _trim_domain(geom, psi, r_range)
    return RotSymProfile(geometry=geom, H=H, psi=psi, branch=branch, domain=domain)


def degenerate_family(
    geom: ConformalGeometry,
    H: RadialFunction,
    b2: float,
    branch: int = 1,
    r_range: tuple[float, float] = (0.1, 10.0),
) -> RotSymProfile:
    """Graphs with everywhere-degenerate induced metric, one per profile ``H``.

    ``Psi = e^{-2u} (b2 + int (R H' - H)^2 e^{2u} / (2 R (1 + R u')))``;
    the slope determinant then cancels identically, for any profile ``H``
    with its closed-form ``H'``. The integral is a 512-cell cumulative quadrature.
    """
    psi = psi_closed_form(geom, H, 0.0, b2, r_range, 512)
    domain = _trim_domain(geom, psi, r_range)
    return RotSymProfile(geometry=geom, H=H, psi=psi, branch=branch, domain=domain)


def comfortable_range(profile: RotSymProfile) -> tuple[float, float]:
    """Sub-interval of the profile domain clear of its degenerate edges.

    Two kinds of domain edge ruin finite-difference residuals. Where ``Psi``
    runs into a zero the slope fields blow up like an inverse square root.
    Where ``1 + R u'`` runs into a zero (the circle at which ``_trim_domain``
    ends a run, ``R = 1`` on the round sphere) the slope determinant
    ``A2 (1 + R u')^2`` vanishes, and the residual's roundoff grows like
    ``1 / |1 + R u'|``. This walks inward to the nodes where
    ``Psi >= 0.1 max Psi`` and ``|1 + R u'| >= NULL_CIRCLE_STANDOFF`` (falling
    back to a 6 percent trim when that empties the interval).
    """
    lo, hi = profile.domain
    rs = np.linspace(lo, hi, 513)
    vals = np.broadcast_to(profile.psi(rs), rs.shape)
    floor = 0.1 * float(np.max(vals))
    d = 1.0 + rs * profile.geometry.radial_du(rs)
    good = np.nonzero((vals >= floor) & (abs(d) >= NULL_CIRCLE_STANDOFF))[0]
    if good.size >= 2:
        new_lo, new_hi = float(rs[good[0]]), float(rs[good[-1]])
        if new_hi - new_lo >= 0.15 * (hi - lo):
            return new_lo, new_hi
    pad = 0.06 * (hi - lo)
    return lo + pad, hi - pad


def ode_residuals(
    geom: ConformalGeometry,
    H: RadialFunction,
    psi: RadialFunction,
    r,
) -> tuple:
    """Residuals of both stationarity ODEs for given profiles, elementwise
    in the radii ``r``.

    The second residual is ``nan`` where its coefficients are undefined
    (``R H' - H = 0``).
    """
    co = ode_coefficients(geom, H, r)
    val = psi(r)
    dval = psi.deriv(r, 1)
    d2val = psi.deriv(r, 2)
    r1 = d2val + co.p1 * dval + co.q1 * val - co.L1
    r2 = d2val + co.p2 * dval + co.q2 * val - co.L2
    return r1, r2
