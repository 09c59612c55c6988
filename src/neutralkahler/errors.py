"""Exception taxonomy for the neutral Kahler laboratory."""


class NeutralKahlerError(Exception):
    """Base class for all library errors."""


class DerivativeUnavailableError(NeutralKahlerError):
    """A derivative could not be evaluated (missing closed form or failing stencil)."""


class QuadratureError(NeutralKahlerError):
    """An integrand was non-finite at a quadrature node."""


class DomainError(NeutralKahlerError):
    """An argument lies outside the domain of validity of an operation."""


class DegeneratePlaneError(NeutralKahlerError):
    """Two vectors supposed to span a plane are linearly dependent."""


class AmbiguousSignatureError(NeutralKahlerError):
    """A metric eigenvalue is too close to zero to count its sign."""

    def __init__(self, eigenvalue: float):
        self.eigenvalue = eigenvalue
        super().__init__(f"near-zero metric eigenvalue {eigenvalue:.3e}; signature is ambiguous")


class SingularCoefficientError(NeutralKahlerError):
    """An ODE coefficient is singular at the requested radius (e.g. 1 + R u' = 0)."""


class SingularResidualError(NeutralKahlerError):
    """The stationarity residual is undefined at a point (degenerate or sign-changing stencil).

    ``reason`` is ``"degenerate"``, ``"det_sign_change"`` or ``"lam_sign_change"``.
    """

    def __init__(self, message: str, reason: str):
        self.reason = reason
        super().__init__(message)


class AdmissibilityError(NeutralKahlerError):
    """Family parameters violate their admissibility constraints."""


class DegenerateFamilyRedirect(AdmissibilityError):
    """The requested stationary family is degenerate (leading constant zero);
    use the degenerate-family constructor instead."""


class EmptyDomainError(NeutralKahlerError):
    """A family profile has no admissible sub-interval in the requested range."""


class ChartError(NeutralKahlerError):
    """A point lies outside the coordinate chart in use."""


class UnsupportedGeometryError(NeutralKahlerError, NotImplementedError):
    """The geometry lacks what an operation needs (such as a polynomial e^{-2u})."""


class ConfigError(NeutralKahlerError):
    """A run configuration is malformed or incomplete."""
