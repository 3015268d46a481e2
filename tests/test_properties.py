"""Property tests of the one projection path, of the implicit step and of
the exhaustion walk over random grids and data, and of heatlab's log-sum-exp
against scipy's.

Grids are uniform face ladders whose jump radii snap onto interior faces;
data are piecewise linear with jumps at those radii and kinks anywhere.
"""

import math

import numpy as np
import pytest
import scipy
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from heatlab import (DIRICHLET, EXHAUSTION_SLACK, NEUMANN, SolveControls,
                     assemble, ball_indicator, euclidean, exact_total_variation,
                     exhaustion_levels, face_ladder, grid_from_faces, perimeter_ball,
                     piecewise, power_exp_weight, project_datum, total_variation,
                     weighted_sum)
from heatlab import geometry
from heatlab.solver import monotonicity_defect
from conftest import implicit_step

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


@given(snapped_ladders(), st.data(), st.sampled_from(
    [euclidean(3), power_exp_weight(2, -1, 3), power_exp_weight(4, 1, 3)]))
def test_variation_of_steps_up_and_down_is_exact(ladder, data, m):
    # piecewise-constant data on faces that hold its jumps, each jump up or
    # down: each face term is sigma A |jump|, so the discrete variation is
    # the exact one.  A variation of the signed jumps reads monotone data
    # right and these wrong
    R, N, jumps = ladder
    points = [(0.0, data.draw(st.floats(-4.0, 4.0)))]
    for r in jumps:
        step = data.draw(st.floats(0.25, 4.0)) * data.draw(st.sampled_from((-1.0, 1.0)))
        points += [(r, points[-1][1]), (r, points[-1][1] + step)]
    datum = piecewise(points)
    g = grid_from_faces(m, face_ladder(R, N, jumps))
    want = exact_total_variation(datum, m)
    got = total_variation(project_datum(datum, g), g, m)
    assert abs(got - want) <= 1e-12 * want, f"off by {(got - want) / want:.2e}"


@st.composite
def weighted_steps(draw):
    """(operator, [ball, noise, ball + noise], dt): a random power_exp weight
    on a grid of radius up to 4.5, where exp(+r^4) measures span e^400, with
    the ball's jump on a face, data in [0, 1] and a step from 1e-6 to 1."""
    m = power_exp_weight(draw(st.floats(1.0, 4.0)), draw(st.sampled_from((1, -1))),
                         draw(st.integers(2, 5)))
    R, N = draw(st.floats(1.0, 4.5)), draw(st.integers(16, 128))
    jump = (draw(st.integers(1, N - 1)) + draw(st.floats(-0.4, 0.4))) * R / N
    g = grid_from_faces(m, face_ladder(R, N, [jump]))
    op = assemble(g, m, draw(st.sampled_from((DIRICHLET, NEUMANN))))
    ball = project_datum(ball_indicator(g.faces[g.face_index(jump)]), g)
    seed = draw(st.integers(0, 2**32 - 1))
    noise = np.random.default_rng(seed).uniform(0.0, 0.5, g.N)
    return op, np.column_stack([ball, noise, ball + noise]), 10.0 ** draw(st.floats(-6.0, 0.0))


@given(weighted_steps())
def test_step_solves_and_keeps_the_maximum_principle(case):
    op, u, dt = case
    g, cond = op.grid, op.conductance
    # L is symmetric in the grid's own measure: <L u, v>_mu = <u, L v>_mu
    # to roundoff of the size of the summed terms
    a, b = op.apply(u[:, 0]), op.apply(u[:, 1])
    terms = weighted_sum(g, np.abs(a), u[:, 1]) + weighted_sum(g, u[:, 0], np.abs(b))
    assert abs(weighted_sum(g, a, u[:, 1]) - weighted_sum(g, u[:, 0], b)) <= 1e-13 * terms
    x = implicit_step(op, dt, u)
    # the step inverts I - dt L, to roundoff of the size of dt * L
    scale = 1.0 + dt * np.max((cond[:-1] + cond[1:]) / op.cell_weights)
    assert np.max(np.abs(x - dt * op.apply(x) - u)) <= 1e-13 * scale
    # Dirichlet drains towards 0, Neumann stays within the data's range
    floor = u.min(axis=0) if op.bc == NEUMANN else 0.0
    assert np.all(x >= floor - 1e-12) and np.all(x <= u.max(axis=0) + 1e-12)
    # stacked columns share one solve: the third is the sum of the others
    assert np.max(np.abs(x[:, 2] - x[:, 0] - x[:, 1])) <= 1e-12
    for k in range(3):
        assert np.max(np.abs(x[:, k] - implicit_step(op, dt, u[:, k]))) <= 1e-12
    # Neumann keeps the mass up to the rounding of each row of the band,
    # which grows with its diagonal as the residual's does
    if op.bc == NEUMANN:
        for k in range(3):
            mass = weighted_sum(g, u[:, k])
            assert abs(weighted_sum(g, x[:, k]) - mass) <= 1e-14 * scale * mass


@st.composite
def exhaustions(draw):
    """(manifold, ball datum, two stop times, controls, radii): a random power_exp
    weight and two or three explicit radii up to 4, each at least 0.3 past
    the one before and the first past the ball."""
    m = power_exp_weight(draw(st.floats(1.0, 4.0)), draw(st.sampled_from((1, -1))),
                         draw(st.integers(2, 5)))
    ball = draw(st.floats(0.2, 1.0))
    radii = [ball + draw(st.floats(0.3, 1.0))]
    for _ in range(draw(st.integers(1, 2))):
        radii.append(radii[-1] + draw(st.floats(0.3, 1.0)))
    t = 10.0 ** draw(st.floats(-3.0, -1.0))
    controls = SolveControls(n_cells=draw(st.integers(16, 48)), step_tol=1e-4)
    return m, ball_indicator(ball), [0.25 * t, t], controls, tuple(radii)


@given(exhaustions())
def test_exhaustion_solutions_grow_with_the_ball(case):
    m, datum, stops, controls, radii = case
    levels = list(exhaustion_levels(m, datum, stops, controls, radii))
    assert len(levels) == len(radii)
    for (_, inner), (_, outer) in zip(levels, levels[1:]):
        for a, b in zip(inner, outer):
            assert monotonicity_defect(a, b) <= EXHAUSTION_SLACK


# scipy 1.15 moved logsumexp to the tied-maxima formula heatlab follows
SCIPY_LSE = pytest.mark.skipif(
    tuple(int(x) for x in scipy.__version__.split(".")[:2]) < (1, 15),
    reason="scipy before 1.15 computes logsumexp by another formula")


@st.composite
def log_terms(draw):
    """2-d arrays with -inf entries, tied maxima and all -inf rows."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 17))
    value = st.one_of(st.floats(-800.0, 800.0), st.just(-math.inf),
                      st.sampled_from([-2.5, 0.0, 3.0]))
    a = np.array(draw(st.lists(value, min_size=rows * cols,
                               max_size=rows * cols))).reshape(rows, cols)
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
        a[i] = -math.inf
    return a


def bitwise_equal(x, y):
    return (type(x) is type(y) and np.shape(x) == np.shape(y)
            and np.asarray(x).tobytes() == np.asarray(y).tobytes())


@SCIPY_LSE
@given(log_terms())
def test_logsumexp_is_scipys_bitwise(a):
    assert bitwise_equal(geometry.logsumexp(a),
                         scipy.special.logsumexp(a, axis=1))


@SCIPY_LSE
@pytest.mark.parametrize("m", [euclidean(3), power_exp_weight(4, 1, 3),
                               power_exp_weight(4, -1, 3)],
                         ids=["euclidean", "power_exp+", "power_exp-"])
def test_cell_measures_are_unchanged_bitwise(m, monkeypatch):
    faces = face_ladder(3.0, 2048)
    ours = geometry.log_area_integral(m, faces[:-1], faces[1:])
    monkeypatch.setattr(geometry, "logsumexp",
                        lambda a: scipy.special.logsumexp(a, axis=1))
    assert ours.tobytes() == geometry.log_area_integral(
        m, faces[:-1], faces[1:]).tobytes()
