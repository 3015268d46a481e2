"""Property tests of the one projection path over random grids and data.

Grids are uniform face ladders whose jump radii snap onto interior faces;
data are piecewise linear with jumps at those radii and kinks anywhere.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from heatlab import (ball_indicator, euclidean, face_ladder, grid_from_faces,
                     perimeter_ball, piecewise, power_exp_weight,
                     project_datum, total_variation)

MODELS = [euclidean(3), *(power_exp_weight(p, sign, 3)
                          for p in (1, 2, 3, 4) for sign in (1, -1))]


@st.composite
def snapped_ladders(draw):
    """(R, N, jump radii): each jump lies within 0.4 cell of its own face."""
    R = draw(st.floats(1.0, 3.0))
    N = draw(st.integers(16, 128))
    faces = draw(st.lists(st.integers(1, N - 1), min_size=1, max_size=4,
                          unique=True))
    return R, N, sorted((k + draw(st.floats(-0.4, 0.4))) * R / N
                        for k in faces)


@st.composite
def breakpoints_on(draw, R, jumps):
    """Breakpoints from the pole with a jump at each radius of ``jumps``
    and kinks at random radii inside (0, R)."""
    # a subnormal kink radius makes its piece too steep: the datum rejects it
    kinks = draw(st.lists(st.floats(0.0, R, exclude_min=True, exclude_max=True,
                                    allow_subnormal=False), max_size=8))
    level = st.floats(0.25, 4.0)
    points = [(0.0, draw(level))]
    for r in sorted(set(kinks) | set(jumps)):
        points.append((r, draw(level)))
        if r in jumps:
            points.append((r, draw(level)))
    return points


def exact_integral(points, R):
    """Integral of the profile over [0, R]: trapezoids between breakpoints,
    then the constant tail."""
    pts = [*points, (R, points[-1][1])]
    return math.fsum((r1 - r0) * 0.5 * (v0 + v1)
                     for (r0, v0), (r1, v1) in zip(pts, pts[1:]))


@given(st.data())
def test_projection_keeps_the_exact_integral(data):
    R, N, jumps = data.draw(snapped_ladders())
    points = data.draw(breakpoints_on(R, jumps))
    g = grid_from_faces(MODELS[0], face_ladder(R, N, jumps))
    u = project_datum(piecewise(points), g)
    got = math.fsum(np.diff(g.faces) * u)
    want = exact_integral(points, R)
    assert abs(got - want) <= 1e-12 * want, f"off by {(got - want) / want:.2e}"


@given(snapped_ladders(), st.data(), st.sampled_from(MODELS))
def test_projected_ball_is_its_indicator(ladder, data, m):
    R, N, jumps = ladder
    r = data.draw(st.sampled_from(jumps))
    g = grid_from_faces(m, face_ladder(R, N, jumps))
    u = project_datum(ball_indicator(r), g)
    assert np.array_equal(u, np.where(g.centers < r, 1.0, 0.0))
    per = perimeter_ball(m, r)
    assert abs(total_variation(u, g, m) - per) <= 1e-12 * per
