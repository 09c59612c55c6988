"""Complex-analytic calculus and quadrature on annuli.

Conventions, fixed once for the whole library:

* ``xi = x + i y`` and the Wirtinger operators are

      d    = (d/dx - i d/dy) / 2        (holomorphic derivative)
      dbar = (d/dx + i d/dy) / 2        (anti-holomorphic derivative)

  so that ``d(xi) = 1``, ``d(conj xi) = 0``.
* Quadrature on an annulus ``[r_min, r_max] x [0, 2pi)`` is composite
  Gauss-Legendre in the radius (4 points per cell) and a uniform trapezoid
  rule in the angle, which is spectrally accurate for periodic integrands.
  The polar Jacobian ``R dR dtheta`` is included by ``integrate_annulus``.
* The radial rules (4 points for ``AnnulusGrid``, 8 for
  ``CumulativeIntegral``) are pinned Gauss-Legendre constants, written out
  to the last bit; ``tests/test_numerics.py::TestGaussRules`` checks their
  exactness on polynomials of degree ``2n - 1``. So is the antiderivative
  table of ``CumulativeIntegral``, and a Clenshaw loop sums its Legendre
  series: the package never imports ``numpy.polynomial``.
* Exclusion bands remove neighbourhoods of singular radii (null circles,
  coefficient singularities) from every grid.
* A radial profile (``RadialFunction``) carries its closed-form derivatives, as a
  field (``ComplexField``) carries its jet: nothing here differences a profile.
* Fields, radial profiles and quadrature integrands evaluate elementwise:
  they take ndarrays of nodes as well as Python scalars, so a grid sweep is
  one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = [
    "ComplexField",
    "RadialFunction",
    "AnnulusGrid",
    "integrate_annulus",
    "integrate_circle",
    "CumulativeIntegral",
]

#: relative step of the plane's one stencil, ``_plane_partials``: h = FD_STEP max(1, |xi|)
FD_STEP = 1e-3
#: default half-width of an exclusion band when none is given
DEFAULT_BAND_HALF_WIDTH = 1e-3

#: ``(nodes, weights)`` of the n-point Gauss-Legendre rule on [-1, 1], nodes
#: ascending; each literal is the shortest repr of the classical float64 value
GAUSS_LEGENDRE_4 = (
    np.array([-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526]),
    np.array([0.3478548451374538, 0.6521451548625462, 0.6521451548625462, 0.3478548451374538]),
)
GAUSS_LEGENDRE_8 = (
    np.array([-0.9602898564975363, -0.7966664774136267, -0.525532409916329, -0.18343464249564984,
              0.18343464249564984, 0.525532409916329, 0.7966664774136267, 0.9602898564975363]),
    np.array([0.10122853629037562, 0.22238103445337473, 0.3137066458778876, 0.36268378337836205,
              0.36268378337836205, 0.3137066458778876, 0.22238103445337473, 0.10122853629037562]),
)
for _table in (*GAUSS_LEGENDRE_4, *GAUSS_LEGENDRE_8):
    _table.flags.writeable = False

#: the arms of the one difference rule in units of its step h, per direction (``1``,
#: then ``i``): ``+h, -h, +h/2, -h/2``; Python complex, so that a Python scalar point
#: plus an arm stays a Python scalar. The first four, real, serve a real variable
_ARMS = (1 + 0j, -1 + 0j, 0.5 + 0j, -0.5 + 0j, 1j, -1j, 0.5j, -0.5j)


def _richardson(values, h) -> list:
    """First derivatives along each direction from the ``values`` on its four arms, in
    the order of ``_ARMS``: ``(4 D(h/2) - D(h)) / 3`` of the central quotients ``D``,
    whose ``2 (h/2) = h`` exactly; elementwise when the values are arrays."""
    diff = [values[j] - values[j + 1] for j in range(0, len(values), 2)]  # + minus - arm
    return [(4.0 * (fine / h) - coarse / (2.0 * h)) / 3.0
            for coarse, fine in zip(diff[::2], diff[1::2])]


def _plane_partials(F: Callable, xi) -> list:
    """``[F_x, F_y]`` at ``xi``, the plane's one stencil: :func:`_richardson` on one call
    of ``F`` per arm of ``_ARMS`` (never a jet), step ``FD_STEP * max(1, |xi|)``. Its one
    caller is ``graphs.pullback_determinant``, the side of ``det_oracle`` that reads no jet."""
    h = FD_STEP * np.maximum(1.0, abs(xi))
    return _richardson([F(xi + arm * h) for arm in _ARMS], h)


class ComplexField(NamedTuple):
    """A complex-valued function of one complex variable (and its conjugate): an
    evaluator and its closed-form jet.

    ``F(xi)`` is the value alone; ``jet(xi)`` is ``(F, dF, dbarF)``. The plane has no
    derivative policy: every field carries its jet, and only the pullback oracle
    differences a field's values. Evaluator and jet are elementwise on arrays of
    nodes; a constant field may return scalars, which callers broadcast.
    """

    evaluator: Callable
    jet: Callable

    def __call__(self, xi):
        return self.evaluator(xi)


def _no_second_derivative(r):
    raise DomainError("radial profile has no closed-form derivative of order 2")


class RadialFunction(NamedTuple):
    """A real function of the radius and its closed-form derivatives, read through
    ``f`` (or the call), ``df`` and ``d2f``. ``df`` is required, so a profile without
    one fails where it is built; one built without ``d2f`` raises ``DomainError``
    where ``d2f`` is read (the ODE coefficients and residuals). All three are
    elementwise in ``r``: they take an ndarray of radii as well as a Python scalar,
    and may return a scalar only when constant, which callers broadcast."""

    f: Callable
    df: Callable
    d2f: Callable = _no_second_derivative

    def __call__(self, r):
        return self.f(r)

    @staticmethod
    def constant(value: float) -> "RadialFunction":
        return RadialFunction(lambda r: value, lambda r: 0.0, lambda r: 0.0)


class CumulativeIntegral:
    """Cumulative quadrature ``I(r) = int_a^r f`` on ``[a, b]``.

    ``f`` is called once, elementwise on the ``(n_cells, 8)`` array of the
    composite Gauss-Legendre nodes (a constant ``f`` may return a scalar).
    Each cell keeps the exact antiderivative of its degree-7 Legendre
    interpolant, whose cell total is that cell's 8-point Gauss sum, so the
    prefix table holds the Gauss sums and evaluation, elementwise in ``r``,
    calls ``f`` zero times. The tables are read-only after construction.
    """

    _NODES, _WEIGHTS = GAUSS_LEGENDRE_8
    #: node values of a cell -> Legendre coefficients of ``int_{-1}^t`` of their
    #: interpolant. The Gauss rule is exact on ``P_j`` times the interpolant, so its
    #: ``P_j`` coefficient is ``(j + 1/2) sum_i w_i P_j(x_i) y_i``; the table is that
    #: map integrated by ``legint(..., lbnd=-1)``, pinned like the Gauss rules (each
    #: literal the shortest repr of its float64), so import loads no numpy.polynomial
    _ANTIDERIVATIVE = np.array([
        [0.09921863643905807, 0.19977227490747157, 0.23928482774643112, 0.2146062767606708,
         0.1480775066176912, 0.07442181813145649, 0.022608759545903155, 0.0020098998513175923],
        [0.005909979436670654, 0.0609306005580443, 0.17029934334665328, 0.262860076658632,
         0.262860076658632, 0.17029934334665328, 0.0609306005580443, 0.005909979436670654],
        [-0.009458822175239745, -0.08090227818878985, -0.14916304052689172, -0.08036274031375878,
         0.08036274031375878, 0.14916304052689172, 0.08090227818878985, 0.009458822175239745],
        [0.01244813122654466, 0.07724838238842503, 0.037841237658571725, -0.12753775127354144,
         -0.12753775127354144, 0.037841237658571725, 0.07724838238842503, 0.01244813122654466],
        [-0.014706513502389322, -0.05252451373398866, 0.0716011549016957, 0.09997188828311643,
         -0.09997188828311643, -0.0716011549016957, 0.05252451373398866, 0.014706513502389322],
        [0.016110604322970058, 0.016019794522015348, -0.09871840141263016, 0.06658800256764458,
         0.06658800256764458, -0.09871840141263016, 0.016019794522015348, 0.016110604322970058],
        [-0.016592868853060237, 0.019651905103021467, 0.03724868435897572, -0.10520063690230165,
         0.10520063690230165, -0.03724868435897572, -0.019651905103021467, 0.016592868853060237],
        [0.01614555315900244, -0.04300826024179732, 0.047431143346348965, -0.020568436263554125,
         -0.020568436263554125, 0.047431143346348965, -0.04300826024179732, 0.01614555315900244],
        [-0.007846163763180916, 0.02519312913897284, -0.042118303541267034, 0.05232710386145422,
         -0.05232710386145422, 0.042118303541267034, -0.02519312913897284, 0.007846163763180916],
    ])
    _ANTIDERIVATIVE.flags.writeable = False

    def __init__(self, f: Callable, a: float, b: float, n_cells: int = 256):
        if not b > a:
            raise DomainError(f"empty integration range [{a}, {b}]")
        self.a = float(a)
        self.b = float(b)
        self.edges = np.linspace(a, b, n_cells + 1)
        self._mid = 0.5 * (self.edges[:-1] + self.edges[1:])
        self._half = 0.5 * np.diff(self.edges)
        nodes = self._mid[:, None] + self._half[:, None] * self._NODES
        values = np.broadcast_to(f(nodes), nodes.shape)
        self.prefix = np.concatenate([[0.0], np.cumsum(self._half * (values @ self._WEIGHTS))])
        self._coeffs = self._half[:, None] * (values @ self._ANTIDERIVATIVE.T)
        for table in (self.edges, self.prefix, self._coeffs):
            table.flags.writeable = False

    def __call__(self, r):
        # the negated range test, so that a NaN radius is outside it too
        outside = np.logical_not((r >= self.a - 1e-12) & (r <= self.b + 1e-12))
        if outside.any():
            _, r0 = _first_where(outside, r)
            raise DomainError(f"radius {r0} outside integration range [{self.a}, {self.b}]")
        r = np.minimum(np.maximum(r, self.a), self.b)
        k = np.minimum(self.edges.searchsorted(r, side="right"), len(self.edges) - 1) - 1
        t = (r - self._mid[k]) / self._half[k]
        return self.prefix[k] + _legendre_series(np.moveaxis(self._coeffs[k], -1, 0), t)


def _legendre_series(c, x):
    """``sum_j c[j] P_j(x)`` for Legendre coefficients ``c[0], ..., c[n]`` (``n >= 1``,
    first axis), elementwise in ``x``: the Clenshaw recurrence of ``legval(x, c,
    tensor=False)``, operation for operation, so its values are legval's bit for bit."""
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _kept_segments(
    r_min: float, r_max: float, bands: Sequence[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Subtract open exclusion intervals from ``[r_min, r_max]``."""
    segments = [(r_min, r_max)]
    for center, half_width in bands:
        lo, hi = center - half_width, center + half_width
        nxt = []
        for a, b in segments:
            if hi <= a or lo >= b:
                nxt.append((a, b))
                continue
            if lo > a:
                nxt.append((a, lo))
            if hi < b:
                nxt.append((hi, b))
        segments = nxt
    segments = [(a, b) for a, b in segments if b - a > 1e-12]
    if not segments:
        raise DomainError("exclusion bands cover the whole radial range")
    return segments


@dataclass(frozen=True)
class AnnulusGrid:
    """Tensor-product grid on an annulus with optional radial exclusion bands.

    ``n_r`` counts radial quadrature cells (4 Gauss points each) and
    ``n_theta`` equally spaced angles. ``exclusion_bands`` is a sequence of
    ``(center, half_width)`` pairs, each with a finite centre and a positive
    finite half-width; no node is placed inside a band. The grid carries its
    complex Gauss nodes, :attr:`xi_nodes`, built on first use: every quadrature of
    ``graphs`` on the grid reads that one table.
    """

    r_min: float
    r_max: float
    n_r: int = 32
    n_theta: int = 32
    exclusion_bands: tuple[tuple[float, float], ...] = ()

    # derived node tables, filled in __post_init__
    radial_nodes: np.ndarray = field(init=False, repr=False, compare=False)
    radial_weights: np.ndarray = field(init=False, repr=False, compare=False)
    theta_nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.r_min > 0.0:
            raise DomainError(f"r_min must be positive, got {self.r_min}")
        if not self.r_min < self.r_max < np.inf:
            raise DomainError(f"need r_min < r_max < inf, got [{self.r_min}, {self.r_max}]")
        if self.n_r < 2:
            raise DomainError(f"need n_r >= 2, got {self.n_r}")
        if self.n_theta < 4:
            raise DomainError(f"need n_theta >= 4, got {self.n_theta}")
        bands = tuple((float(c), float(h)) for c, h in self.exclusion_bands)
        if not all(np.isfinite(c) and 0.0 < h < np.inf for c, h in bands):
            raise DomainError(f"exclusion bands {bands} need finite centres and positive "
                              "finite half-widths")
        object.__setattr__(self, "exclusion_bands", bands)

        segments = _kept_segments(self.r_min, self.r_max, bands)
        if len(segments) > self.n_r:
            raise DomainError(
                f"n_r = {self.n_r} cells cannot cover {len(segments)} kept radial segments"
            )
        total = sum(b - a for a, b in segments)
        nodes, weights = [], []
        gl_t, gl_w = GAUSS_LEGENDRE_4
        remaining = self.n_r
        for idx, (a, b) in enumerate(segments):
            if idx == len(segments) - 1:
                cells = remaining
            else:
                cells = max(1, round(self.n_r * (b - a) / total))
                cells = min(cells, remaining - (len(segments) - 1 - idx))
            remaining -= cells
            edges = np.linspace(a, b, cells + 1)
            mid, half = 0.5 * (edges[:-1] + edges[1:])[:, None], 0.5 * np.diff(edges)[:, None]
            nodes.append(mid + half * gl_t)
            weights.append(half * gl_w)
        object.__setattr__(self, "radial_nodes", np.concatenate(nodes, axis=None))
        object.__setattr__(self, "radial_weights", np.concatenate(weights, axis=None))
        object.__setattr__(
            self, "theta_nodes", np.arange(self.n_theta) * (2.0 * np.pi / self.n_theta)
        )

    @cached_property
    def xi_nodes(self) -> np.ndarray:
        """The complex Gauss nodes ``R e^{i theta}`` (:func:`_polar`), indexed ``[radial
        node, angle]`` and read-only. Built at the first read and kept with the grid, not
        in ``__post_init__``: the lattice sweeps (residual, classify, export) never read it."""
        xi = _polar(self.radial_nodes[:, None], self.theta_nodes)
        xi.flags.writeable = False
        return xi

    @property
    def theta_weight(self) -> float:
        return 2.0 * np.pi / self.n_theta

    def _lattice(self) -> tuple[np.ndarray, np.ndarray]:
        """R and theta of the uniform ``n_r x n_theta`` lattice (inclusive in R, bands
        removed) as flat arrays, ring by ring: the nodes of the residual and
        classification sweeps and of the line-congruence export, where evenly spaced
        nodes read better than Gauss points."""
        rs = np.linspace(self.r_min, self.r_max, self.n_r)
        rs = rs[[not any(abs(r - c) < h for c, h in self.exclusion_bands) for r in rs]]
        return np.repeat(rs, self.n_theta), np.tile(self.theta_nodes, rs.size)

    def mesh_nodes(self) -> list[tuple[float, float]]:
        """The ``(R, theta)`` pairs of :meth:`_lattice`, in its order; the package
        itself works on the arrays, and only the benchmark counts these pairs."""
        rs, ts = self._lattice()
        return list(zip(rs.tolist(), ts.tolist()))


def _polar(r, t):
    """``r e^{i t}`` elementwise, rounded like ``r * complex(cos t, sin t)``."""
    return r * (np.cos(t) + 1j * np.sin(t))


#: rows formatted and written at once, so the row strings held at a time stay bounded
_WRITE_BLOCK = 1024


def _reprs(column: np.ndarray) -> list[str]:
    """``[repr(x) for x in column.tolist()]`` of a float64 or int64 column, one ``repr``
    per distinct bit pattern (``0.0``/``-0.0`` and ``nan`` keep their own strings)."""
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    return np.array([repr(x) for x in bits.view(column.dtype).tolist()], object)[inverse].tolist()


def _write_rows(fh, prefix: str, sep: str, numbers, labels=()) -> int:
    """Write one line per row and return their count: ``prefix``, then joined by ``sep``
    the ``numbers`` columns (float64 or int64 arrays) and the ``labels`` (string lists).

    A number is its ``repr`` (shortest round trip), made once per distinct bit pattern
    per column in each block of ``_WRITE_BLOCK`` rows; a block is one ``fh.write``."""
    written = 0
    for start in range(0, len(numbers[0]), _WRITE_BLOCK):
        block = slice(start, start + _WRITE_BLOCK)
        columns = [_reprs(c[block]) for c in numbers] + [c[block] for c in labels]
        lines = list(map(sep.join, zip(*columns)))
        fh.write(prefix + ("\n" + prefix).join(lines) + "\n")
        written += len(lines)
    return written


def _first_where(mask, *arrays) -> tuple:
    """The index (row-major) of the first true entry of ``mask`` and the entries of
    ``arrays`` there, all broadcast together: an error names that one entry, not
    a whole array."""
    mask, *arrays = np.broadcast_arrays(mask, *arrays)
    index = tuple(np.argwhere(mask)[0].tolist())
    return (index, *(a[index] for a in arrays))


def _require_finite(finite: np.ndarray, grid: AnnulusGrid) -> None:
    """Raise :class:`QuadratureError` at the first node (radial-major) where ``finite`` fails."""
    if not finite.all():
        _, r, t = _first_where(~finite, grid.radial_nodes[:, None], grid.theta_nodes)
        raise QuadratureError(f"non-finite integrand at node (R={r:.6g}, theta={t:.6g})")


def _node_sum(values: np.ndarray, grid: AnnulusGrid) -> np.ndarray:
    """Quadrature of node values indexed ``[..., radial node, angle]``."""
    r = grid.radial_nodes[:, None]
    return np.sum(grid.radial_weights[:, None] * grid.theta_weight * values * r, axis=(-2, -1))


def integrate_annulus(integrand: Callable, grid: AnnulusGrid) -> float:
    """Quadrature of ``∫∫ integrand(R, theta) R dR dtheta`` over the grid. The
    integrand is called once, elementwise on the radii as a column and the
    angles as a row; it may return a scalar when constant."""
    shape = (grid.radial_nodes.size, grid.n_theta)
    table = np.broadcast_to(integrand(grid.radial_nodes[:, None], grid.theta_nodes), shape)
    _require_finite(np.isfinite(table), grid)
    return float(_node_sum(table, grid))


def integrate_circle(f: Callable, n_theta: int = 256) -> float:
    """Trapezoid rule for ``∮ f(theta) dtheta`` over one period; ``f`` is
    called once, elementwise on the array of angles."""
    thetas = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    vals = np.broadcast_to(f(thetas), thetas.shape)
    finite = np.isfinite(vals)
    if not finite.all():
        _, bad = _first_where(~finite, thetas)
        raise QuadratureError(f"non-finite boundary integrand at theta={bad:.6g}")
    return float(vals.sum() * (2.0 * np.pi / n_theta))
