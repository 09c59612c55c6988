"""Numerical laboratory for the neutral Kahler structure on TN.

The tangent bundle of a Riemannian 2-manifold carries a canonical
neutral-signature Kahler triple (metric, symplectic form, complex
structure). This package evaluates the triple in coordinates, studies
graph sections through their slope invariants and induced metrics,
checks area-stationarity both via the Euler-Lagrange residual and via
direct first variation of the area, constructs the closed-form
rotationally symmetric stationary and degenerate families, and realises
the round-sphere case as congruences of oriented lines in 3-space.

Each module's ``__all__`` is its public API, and the package re-exports
all of it.
"""

from . import ambient, graphs, lines3d, numerics, rotsym, sampling
from .ambient import *  # noqa: F403
from .graphs import *  # noqa: F403
from .lines3d import *  # noqa: F403
from .numerics import *  # noqa: F403
from .rotsym import *  # noqa: F403
from .sampling import *  # noqa: F403

__all__ = (ambient.__all__ + numerics.__all__ + graphs.__all__ + rotsym.__all__
           + lines3d.__all__ + sampling.__all__)

__version__ = "0.1.0"
