"""The elementwise contract: each point of one stacked call of a kernel equals that
kernel's one-point call at a Python point, within a stated bound.

numpy's array arithmetic may round differently from its scalar arithmetic (and a
stack may take other vector paths than a short array), so the contract is a bound,
not bit identity. Each bound is the worst value measured over seeded draws from
the ranges of the strategies below (20000 draws for the frame and Theta, 5000 for the
slopes and the residual, on flat, sphere and the conftest bump, a tenth of the
coordinates put at 0, +-1 or an end of their range), times a stated margin. The ode residuals and the
closed profiles hold theirs in
``test_rotsym.TestStationaryFamily::test_a_radius_is_its_slice_of_an_array_call``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from neutralkahler.ambient import TangentPoint, ambient_frame, theta_form
from neutralkahler.graphs import _residual_map, slopes
from neutralkahler.sampling import random_polynomial_section, rng_from_seed

#: frame entries against the point's largest entry: measured worst 1.9e-15, margin 10.
#: Entry by entry the deviation is unbounded: where m = -4 Im(eta dw) cancels to
#: almost nothing, one rounding is the whole entry (relative deviation 1.0 measured)
FRAME_BOUND = 2e-14
#: Theta against max(1, its largest component): measured worst 8.9e-16, margin 11
THETA_BOUND = 1e-14
#: sigma and rho against max(1, |x|): measured worst 4.4e-15, margin 11 (against |x|
#: alone, 4.0e-14 where a slope is small)
SLOPES_BOUND = 5e-14
#: the residual against max(1, |r|), on random polynomial sections: measured worst
#: 6.3e-15, margin 16; a point's skip code equals its slice's exactly
RESIDUAL_BOUND = 1e-13

coordinate = st.floats(-2.5, 2.5)
points = st.lists(st.tuples(coordinate, coordinate, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                  min_size=1, max_size=12)


def deviation(one, stacked, scale):
    """The largest entry of ``|one - stacked|`` over ``scale``."""
    return np.max(np.abs(np.subtract(one, stacked))) / scale


def assert_frame_and_theta_pointwise(geom, coords):
    """``ambient_frame`` and ``theta_form`` at each ``(x, y, Re eta, Im eta)`` of
    ``coords`` against its slice of one stacked call."""
    x, y, a, b = np.array(coords).T
    p = TangentPoint(x + 1j * y, a + 1j * b)
    frame, theta = ambient_frame(geom, p), theta_form(geom, p)
    for i, point in enumerate(zip((x + 1j * y).tolist(), (a + 1j * b).tolist())):
        one = ambient_frame(geom, TangentPoint(*point))
        scale = max(np.max(np.abs(one.G4)), np.max(np.abs(one.O4)))
        assert deviation(one.G4, frame.G4[i], scale) <= FRAME_BOUND
        assert deviation(one.O4, frame.O4[i], scale) <= FRAME_BOUND
        components = theta_form(geom, TangentPoint(*point)).components
        assert deviation(components, theta.components[i],
                         max(1.0, np.max(np.abs(components)))) <= THETA_BOUND


class TestStackedCallIsPointwise:
    @given(geometry=st.sampled_from(["flat", "sphere", "bump"]), coords=points)
    @settings(max_examples=100, deadline=None)
    def test_frame_and_theta(self, flat, sphere, bump, geometry, coords):
        assert_frame_and_theta_pointwise({"flat": flat, "sphere": sphere, "bump": bump}[geometry],
                                         coords)

    @given(geometry=st.sampled_from(["flat", "sphere", "bump"]), seed=st.integers(0, 2**16),
           coords=points)
    @settings(max_examples=60, deadline=None)
    def test_slopes_and_residual_map(self, flat, sphere, bump, geometry, seed, coords):
        geom = {"flat": flat, "sphere": sphere, "bump": bump}[geometry]
        section = random_polynomial_section(rng_from_seed(seed), geom)
        x, y, _, _ = np.array(coords).T
        xi = x + 1j * y
        sl = slopes(section, xi)
        values, codes, _ = _residual_map(section, xi)
        for i, point in enumerate(xi.tolist()):
            one = slopes(section, point)
            for got, stack in ((one.sigma, sl.sigma[i]), (one.rho, sl.rho[i])):
                assert deviation(got, stack, max(1.0, abs(stack))) <= SLOPES_BOUND
            value, code, _ = _residual_map(section, point)
            assert code == codes[i]
            if code == 0:
                assert deviation(value, values[i], max(1.0, abs(values[i]))) <= RESIDUAL_BOUND
            else:
                assert np.isnan(value) and np.isnan(values[i])
