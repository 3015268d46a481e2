"""Geometry layer: area functions, exact perimeters and variations, data."""

import math
import tracemalloc

import numpy as np
import pytest

from heatlab import (
    InvalidArgumentError,
    NumericalFailure,
    RangeError,
    ball_indicator,
    ball_volume,
    build_grid,
    constant_one,
    euclidean,
    exact_total_variation,
    log_area_integral,
    perimeter_ball,
    piecewise,
    power_exp_weight,
    sphere_constant,
)
from heatlab import geometry
from heatlab.geometry import RadialBVDatum


def test_sphere_constant_small_dimensions():
    # surface area of the unit sphere: 2 pi (n=2), 4 pi (n=3), 2 pi^2 (n=4)
    assert abs(sphere_constant(2) - 2 * math.pi) < 1e-14
    assert abs(sphere_constant(3) - 4 * math.pi) < 1e-14
    assert abs(sphere_constant(4) - 2 * math.pi ** 2) < 1e-13


@pytest.mark.parametrize("dimension", [0, -1, -2])
def test_sphere_constant_rejects_dimensions_below_one(dimension):
    # 0 and -2 are poles of Gamma(n/2), -1 is not; none is a sphere
    with pytest.raises(InvalidArgumentError, match=f"got {dimension}"):
        sphere_constant(dimension)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: ball_indicator(True), id="ball_indicator(True)"),
    pytest.param(lambda: ball_indicator("1"), id="ball_indicator('1')"),
    pytest.param(lambda: piecewise([(0.0, 1.0), (1.0, "0")]), id="piecewise value '0'"),
    pytest.param(lambda: ball_volume(euclidean(3), True), id="ball_volume(True)"),
    pytest.param(lambda: perimeter_ball(euclidean(3), True), id="perimeter_ball(True)"),
    pytest.param(lambda: euclidean("3"), id="euclidean('3')"),
    pytest.param(lambda: euclidean(math.inf), id="euclidean(inf)"),
    pytest.param(lambda: power_exp_weight(4, 1, "3"), id="power_exp_weight(dimension '3')"),
    pytest.param(lambda: sphere_constant(True), id="sphere_constant(True)"),
])
def test_a_boolean_or_a_string_is_no_radius_or_dimension(call):
    # True == 1 and float('1') == 1, but neither is a number a caller meant;
    # each once built the unit ball, or raised TypeError or OverflowError
    with pytest.raises(InvalidArgumentError):
        call()


def test_a_whole_float_dimension_is_honoured():
    assert euclidean(3.0).dimension == 3
    assert perimeter_ball(euclidean(3.0), 1.0) == perimeter_ball(euclidean(3), 1.0)


def test_euclidean_perimeter_and_volume(euclid3):
    for r in (0.25, 1.0, 3.0):
        per = perimeter_ball(euclid3, r)
        vol = ball_volume(euclid3, r)
        assert abs(per - 4 * math.pi * r ** 2) < 1e-12 * per, f"perimeter off at r={r}"
        assert abs(vol - 4 * math.pi * r ** 3 / 3) < 1e-10 * vol, f"volume off at r={r}"


def test_ball_volume_out_of_range_is_a_range_error(pe4):
    # at r = 1e80, log A itself overflows, so the log integral reads +inf
    for r in (6.0, 1e80):
        with pytest.raises(RangeError, match="ball volume overflows"):
            ball_volume(pe4, r)


def test_power_exp_perimeter(pe4):
    r = 1.5
    expected = 4 * math.pi * r ** 2 * math.exp(r ** 4)
    got = perimeter_ball(pe4, r)
    assert abs(got - expected) < 1e-11 * expected, f"{got} != {expected}"


def test_power_exp_rejects_bad_parameters():
    # a NaN power once built a model whose overflow-safe radius read 0, an
    # infinite one a safe radius of 1, and a sign of True ran as +1
    for p, sign in ((0, 1), (4, 2), (math.nan, 1), (math.inf, 1), (True, 1),
                    ("4", 1), (4, True)):
        with pytest.raises(InvalidArgumentError, match="weight"):
            power_exp_weight(p, sign)


def test_log_area_integral_euclidean(euclid3):
    # integral of r^2 over [1, 2] is 7/3; the function returns its log
    got = log_area_integral(euclid3, 1.0, 2.0)
    assert abs(got - math.log(7.0 / 3.0)) < 1e-12


def test_log_area_integral_orders_endpoints(euclid3):
    with pytest.raises(InvalidArgumentError):
        log_area_integral(euclid3, 2.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        log_area_integral(euclid3, [0.0, 2.0], [1.0, 1.5])


@pytest.mark.parametrize("m", [euclidean(3), euclidean(343),
                               power_exp_weight(4, 1, 3)],
                         ids=["R3", "R343", "power_exp+"])
def test_log_area_integral_on_arrays_is_the_scalar_calls_bitwise(m, monkeypatch):
    # some of these intervals are bisected and some not: an interval's
    # refinement never depends on its neighbours, nor on the block it is in
    lo = np.array([[0.0, 0.5, 1.0], [0.25, 1.0, 1.0]])
    hi = np.array([[0.5, 1.0, 1.0], [1.25, 2.0, 3.0]])
    got = log_area_integral(m, lo, hi)
    assert got.shape == lo.shape
    scalars = [log_area_integral(m, a, b) for a, b in zip(lo.flat, hi.flat)]
    assert got.tobytes() == np.array(scalars).reshape(lo.shape).tobytes()
    assert got[0, 2] == -math.inf
    monkeypatch.setattr(geometry, "_BLOCK", 4)
    assert log_area_integral(m, lo, hi).tobytes() == got.tobytes()


def test_log_area_integral_of_one_long_interval_matches_a_fine_grid(pe4):
    # [0, 5.13] on exp(+r^4) spans 700 orders of A: bisected to depth ~16
    grid = build_grid(pe4, 5.13, 8192)
    cells = math.fsum(np.exp(grid.log_cell_measure - pe4.log_sphere_constant))
    whole = math.exp(log_area_integral(pe4, 0.0, 5.13))
    assert abs(whole - cells) < 1e-12 * cells


def test_log_area_integral_converges_on_a_steep_pole_cell():
    # A = r^342 on the first of 64 cells of [0, 1]: its integral is h^343 / 343
    h = 1.0 / 64
    got = log_area_integral(euclidean(343), 0.0, h)
    assert abs(got - (343 * math.log(h) - math.log(343))) < 1e-12


def test_log_area_integral_gives_up_past_its_depth_cap(monkeypatch):
    # the R^343 pole cell converges at bisection depth 4, and not before
    m, h = euclidean(343), 1.0 / 64
    converged = log_area_integral(m, 0.0, h)
    monkeypatch.setattr(geometry, "_MAX_DEPTH", 4)
    assert log_area_integral(m, 0.0, h) == converged
    monkeypatch.setattr(geometry, "_MAX_DEPTH", 3)
    with pytest.raises(NumericalFailure, match="failed to converge"):
        log_area_integral(m, 0.0, h)


def test_the_quadrature_working_set_is_one_block(euclid3):
    # past one block only the output grows: 32 blocks' traced peak stays
    # within 1.5x of one block's (at one pass over all intervals it grew
    # 8x from 2,048 intervals to 16,384)
    def peak(n: int) -> int:
        faces = np.linspace(0.0, 8.0, n + 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log_area_integral(euclid3, faces[:-1], faces[1:])
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    peak(geometry._BLOCK)  # first calls may allocate once for good
    one, many = peak(geometry._BLOCK), peak(16_384)
    assert many <= 1.5 * one, (one, many)


def test_datum_validation():
    with pytest.raises(InvalidArgumentError):
        ball_indicator(0.0)
    with pytest.raises(InvalidArgumentError):
        ball_indicator(math.inf)
    with pytest.raises(InvalidArgumentError):
        piecewise([(0.0, 1.0)])
    with pytest.raises(InvalidArgumentError):
        piecewise([(1.0, 0.0), (0.5, 1.0)])
    with pytest.raises(InvalidArgumentError):
        piecewise([(1.0, 0.0), (1.0, 0.5), (1.0, 1.0), (2.0, 0.0)])
    with pytest.raises(InvalidArgumentError):
        RadialBVDatum(((0.0, 1.0),))
    # NaN compares false and would slip through the ordering checks; an
    # infinite value would surface only later, as an overflowing variation
    with pytest.raises(InvalidArgumentError):
        piecewise([(0.0, 1.0), (math.nan, 0.0)])
    with pytest.raises(InvalidArgumentError):
        piecewise([(0.0, math.inf), (1.0, 0.0)])
    # a slope past the double range would evaluate to -inf beside the pole
    with pytest.raises(InvalidArgumentError):
        piecewise([(0.0, 1.0), (2e-311, 0.5), (1.0, 0.0)])


def test_datum_support_and_jumps():
    ball = ball_indicator(1.25)
    assert ball.support_radius == 1.25
    assert ball.jump_radii == (1.25,)

    comp = piecewise(((0.0, 0.0), (2.0, 0.0), (2.0, 1.0)))
    assert comp.support_radius == math.inf
    assert comp.jump_radii == (2.0,)

    ramp = piecewise([(0.0, 1.0), (1.0, 1.0), (1.0, 0.25), (2.0, 0.0)])
    assert ramp.support_radius == 2.0
    assert ramp.jump_radii == (1.0,)

    one = constant_one()
    assert one.support_radius == math.inf
    assert one.jump_radii == ()
    # the automatic exhaustion radii start from the last breakpoint radius
    assert one.breakpoints[-1][0] == 0.0


def test_datum_values_right_continuous():
    ball = ball_indicator(1.0)
    assert ball.value(0.999) == 1.0
    assert ball.value(1.0) == 0.0, "indicator must take the outside value at its jump"
    comp = piecewise(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))
    assert comp.value(1.0) == 1.0

    ramp = piecewise([(0.0, 1.0), (1.0, 1.0), (1.0, 0.5), (2.0, 0.0)])
    assert ramp.value(1.0) == 0.5
    assert abs(ramp.value(1.5) - 0.25) < 1e-15
    # vectorized evaluation agrees with scalar
    rs = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    vals = ramp.value(rs)
    for r, v in zip(rs, vals):
        assert v == ramp.value(float(r)), f"vector/scalar mismatch at r={r}"


def test_exact_tv_ball_euclidean(euclid3):
    tv = exact_total_variation(ball_indicator(1.0), euclid3)
    assert abs(tv - 4 * math.pi) < 1e-12 * 4 * math.pi
    tv2 = exact_total_variation(
        piecewise(((0.0, 0.0), (2.0, 0.0), (2.0, 1.0))), euclid3)
    assert abs(tv2 - 16 * math.pi) < 1e-12 * 16 * math.pi


def test_exact_tv_linear_ramp(euclid3):
    # unit downward slope on [0, 1]: integral of 4 pi r^2 gives 4 pi / 3
    ramp = piecewise([(0.0, 1.0), (1.0, 0.0)])
    tv = exact_total_variation(ramp, euclid3)
    assert abs(tv - 4 * math.pi / 3) < 1e-10 * tv


def test_exact_tv_mixes_jumps_and_slopes(euclid3):
    datum = piecewise([(0.0, 1.0), (1.0, 1.0), (1.0, 0.5), (2.0, 0.0)])
    jump = 0.5 * 4 * math.pi
    slope = 0.5 * 4 * math.pi * (2.0 ** 3 - 1.0) / 3.0
    tv = exact_total_variation(datum, euclid3)
    assert abs(tv - (jump + slope)) < 1e-10 * tv


def test_exact_tv_weighted_ball(pe4, gauss):
    tv = exact_total_variation(ball_indicator(1.0), pe4)
    assert abs(tv - 4 * math.pi * math.e) < 1e-11 * tv
    tvg = exact_total_variation(ball_indicator(1.0), gauss)
    assert abs(tvg - 4 * math.pi / math.e) < 1e-11 * tvg


def test_exact_tv_overflow_is_an_error(pe4):
    # perimeter log ~ 6**4 = 1296, far past double range
    with pytest.raises(RangeError):
        exact_total_variation(ball_indicator(6.0), pe4)


@pytest.mark.parametrize("end", [30.0, 1000.0])
def test_exact_tv_overflowing_piece_is_a_range_error(pe4, end):
    # the quadrature over [0, end] cannot converge; the piece is refused
    # by name before it is tried
    with pytest.raises(RangeError, match=rf"segment \[0.0, {end}\]"):
        exact_total_variation(piecewise([(0.0, 1.0), (end, 0.0)]), pe4)


def test_constant_has_no_variation(euclid3):
    assert exact_total_variation(constant_one(), euclid3) == 0.0
