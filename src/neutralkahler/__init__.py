"""Numerical laboratory for the neutral Kahler structure on TN.

The tangent bundle of a Riemannian 2-manifold carries a canonical
neutral-signature Kahler triple (metric, symplectic form, complex
structure). This package evaluates the triple in coordinates, studies
graph sections through their slope invariants and induced metrics,
checks area-stationarity both via the Euler-Lagrange residual and via
direct first variation of the area, constructs the closed-form
rotationally symmetric stationary and degenerate families, and realises
the round-sphere case as congruences of oriented lines in 3-space.
"""

from .ambient import (
    AmbientFrame,
    ConformalGeometry,
    TangentPoint,
    ThetaForm,
    ambient_frame,
    ambient_signature,
    calibration_gap,
    flat_geometry,
    radial_geometry,
    sphere_geometry,
    theta_form,
)
from .graphs import (
    GraphSection,
    InducedMetric,
    SlopeData,
    SurfaceClass,
    area,
    bump_basis,
    conjugate_section,
    el_residual,
    export_classification_csv,
    first_variation,
    induced_metric,
    lagrangian_section,
    polynomial_section,
    pullback_determinant,
    slopes,
    stokes_check,
)
from .lines3d import (
    OrientedLine,
    SignatureSample,
    TorusFamily,
    export_congruence,
    signature_profile,
    to_oriented_line,
    torus_profile,
    torus_section,
)
from .numerics import (
    AnnulusGrid,
    ComplexField,
    RadialFunction,
    integrate_annulus,
    integrate_circle,
    radial_derivative,
)
from .rotsym import (
    FamilyParams,
    OdeCoefficients,
    RotSymProfile,
    degenerate_family,
    ode_coefficients,
    ode_residuals,
    psi_closed_form,
    reduction_of_order,
    sphere_shorthand_params,
    stationary_family,
)

__version__ = "0.1.0"
