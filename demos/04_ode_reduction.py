"""The second-order ODE pair behind rotational stationarity.

For ``F = (H + i sqrt(Psi)) e^{i theta}`` stationarity is two coupled
second-order equations for ``Psi`` sourced by ``H``. The first has the
explicit homogeneous solutions ``R^2`` and ``e^{-2u}``; the second pins
``H``. The demo evaluates the coefficient functions, reconstructs the
conformal solution by reduction of order, solves the inhomogeneous
equation by cumulative quadrature, and compares with the closed form.
"""

import math

import numpy as np

from neutralkahler import (
    flat_geometry,
    ode_coefficients,
    ode_residuals,
    psi_closed_form,
    reduction_of_order,
    sphere_geometry,
)
from neutralkahler.numerics import RadialFunction

sphere = sphere_geometry()
flat = flat_geometry()
H_LIN = RadialFunction(lambda r: r, lambda r: 1.0, lambda r: 0.0)

print("=== coefficients at R = 2 over the flat plane (u = 0) ===")
co = ode_coefficients(flat, H_LIN, 2.0)
print(f"p1 = {co.p1:+.4f}   q1 = {co.q1:+.4f}   L1 = {co.L1:+.4f}   L2 = {co.L2:+.4f}")
print("(H = R makes both sources vanish; p2, q2 are then undefined)")

print("\n=== homogeneous solutions of the first equation ===")
for r in (0.4, 0.8):
    em2u = math.exp(-2.0 * sphere.radial_u(r))
    co = ode_coefficients(sphere, H_LIN, r)
    r2_resid = 2.0 + co.p1 * 2.0 * r + co.q1 * r * r
    du = sphere.radial_du(r)
    ddu = sphere.radial_ddu(r)
    conf_resid = (4 * du * du - 2 * ddu) * em2u + co.p1 * (-2 * du * em2u) + co.q1 * em2u
    print(f"R = {r}: residual of R^2 -> {r2_resid:.2e}, of e^(-2u) -> {conf_resid:.2e}")

print("\n=== reduction of order recovers the conformal solution ===")
a, b = 0.1, 0.9
psi1 = RadialFunction(lambda r: r * r, lambda r: 2.0 * r)
psi2 = reduction_of_order(lambda r: ode_coefficients(sphere, H_LIN, r).p1, psi1, (a, b), 512)
em2u = lambda r: np.exp(-2.0 * sphere.radial_u(r))
rs = np.linspace(a, b, 25)
A = np.array([[em2u(r), r * r] for r in rs])
y = np.array([psi2(float(r)) for r in rs])
coeffs, *_ = np.linalg.lstsq(A, y, rcond=None)
K = a * (1.0 + a * sphere.radial_du(a)) * em2u(a)
print(f"psi2 = {coeffs[0]:+.6f} e^(-2u) {coeffs[1]:+.6f} R^2 "
      f"(fit residual {np.max(np.abs(A @ coeffs - y)):.2e})")
print(f"normalised conformal coefficient: {coeffs[0] * K:+.6f} (expect -0.5)")

print("\n=== quadrature solution vs. the closed family ===")
a1, b1, a2, b2 = 0.3, 0.8, 1.1, 0.6
# H = a1 R + b1 e^{-2u} / R with e^{-2u} = (1 + R^2)^2 / 4, and its closed-form H', H''
H = RadialFunction(lambda r: a1 * r + 0.25 * b1 * (1.0 / r + 2.0 * r + r**3),
                   lambda r: a1 + 0.25 * b1 * (-1.0 / r**2 + 2.0 + 3.0 * r * r),
                   lambda r: 0.25 * b1 * (2.0 / r**3 + 6.0 * r))
psi = psi_closed_form(sphere, H, a2, b2, (0.1, 0.9), n_quad=512)
shift = -b1 * b1 * em2u(0.1) / 0.01
worst = 0.0
for r in np.linspace(0.1, 0.9, 17):
    r = float(r)
    exact = a2 * r * r + b2 * em2u(r) - b1 * b1 * em2u(r) ** 2 / (r * r)
    worst = max(worst, abs(psi(r) - exact + shift * em2u(r)))
print(f"max |quadrature - closed form| (modulo the anchored constant): {worst:.2e}")

print("\n=== the residuals reject non-solutions ===")
bogus = RadialFunction(lambda r: r, lambda r: 1.0, lambda r: 0.0)
r1, _ = ode_residuals(flat, H_LIN, bogus, 1.3)
print(f"Psi = R with H = R on the flat plane: first residual = {r1:+.6f} (= -1/R)")
