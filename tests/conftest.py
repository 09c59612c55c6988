import numpy as np
import pytest

from neutralkahler import flat_geometry, sphere_geometry
from neutralkahler.ambient import radial_geometry
from neutralkahler.numerics import RadialFunction


@pytest.fixture(scope="session")
def flat():
    return flat_geometry()


@pytest.fixture(scope="session")
def sphere():
    return sphere_geometry()


@pytest.fixture(scope="session")
def bump():
    """A Gaussian conformal bump with pinned constants, ``u = 0.3 exp(-R^2 / 2)``:
    the row that the geometry-table tests add."""
    a, s2 = 0.3, 2.0
    return radial_geometry("bump", RadialFunction(
        lambda r: a * np.exp(-r * r / s2),
        lambda r: -2.0 * a * r / s2 * np.exp(-r * r / s2),
        lambda r: (-2.0 * a / s2 + 4.0 * a * r * r / s2**2) * np.exp(-r * r / s2)))
