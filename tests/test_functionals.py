"""Weighted functionals, flux profiles, and sequence extrapolation."""

import math

import numpy as np
import pytest

from heatlab import (
    DIRICHLET,
    InvalidArgumentError,
    RangeError,
    SolveControls,
    advance_states,
    assemble,
    ball_indicator,
    build_grid,
    constant_one,
    euclidean,
    extrapolate_limit,
    face_variation_terms,
    flux_profile,
    overflow_safe_radius,
    perimeter_ball,
    project_datum,
    total_variation,
    weighted_sum,
)
from heatlab.experiments import _blowup_at


def test_mass_of_ones_is_volume(euclid3):
    g = build_grid(euclid3, 2.0, 64)
    vol = 4 * math.pi * 8.0 / 3.0
    assert abs(weighted_sum(g, np.ones(64)) - vol) < 1e-10 * vol
    assert abs(weighted_sum(g) - vol) < 1e-10 * vol


def test_l1_norm_and_inner_consistency(gauss):
    g = build_grid(gauss, 3.0, 96)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(96)
    assert abs(weighted_sum(g, np.abs(u)) - weighted_sum(g, np.abs(u), np.ones(96))) < 1e-12
    assert weighted_sum(g, np.abs(u - u)) == 0.0
    v = rng.standard_normal(96)
    assert abs(weighted_sum(g, u, v) - weighted_sum(g, v, u)) < 1e-14
    with pytest.raises(InvalidArgumentError):
        weighted_sum(g, u, np.ones(95))


def test_variation_of_projected_indicator_is_the_face_area(euclid3, pe4):
    # one interior jump contributes sigma * A(face) exactly, nothing else
    for m in (euclid3, pe4):
        g = build_grid(m, 3.0, 128, jump_radii=(1.0,))
        u = project_datum(ball_indicator(1.0), g)
        terms = face_variation_terms(u, g, m)
        nz = np.nonzero(terms)[0]
        assert nz.size == 1, f"expected a single contributing face, got {nz.size}"
        per = perimeter_ball(m, 1.0)
        assert abs(total_variation(u, g, m) - per) < 1e-12 * per


def test_variation_excludes_the_truncation_face(euclid3):
    # constant one hits the Dirichlet ghost, not an interior face
    g = build_grid(euclid3, 2.0, 64)
    u = project_datum(constant_one(), g)
    assert total_variation(u, g, euclid3) == 0.0


def test_projection_requires_jump_faces(euclid3):
    g = build_grid(euclid3, 2.0, 64)
    with pytest.raises(InvalidArgumentError):
        project_datum(ball_indicator(1.0 + 1e-4), g)


def test_variation_overflow_raises(pe4):
    g = build_grid(pe4, 5.0, 128, jump_radii=(4.9,))
    u = np.where(g.centers < 4.9, 1.0, 0.0)
    # sigma * A at r=4.9 has log ~ 580 + log(4pi r^2), fine; at amplitude
    # 1e200 the term leaves the double range and must raise, not wrap
    with pytest.raises(RangeError):
        face_variation_terms(1e200 * u, g, pe4)


def test_flux_of_linear_profile(euclid3):
    # u = 2 - r has du/dr = -1, so q(f) = A(f) exactly at interior faces
    # on the 63 interior faces, in order
    g = build_grid(euclid3, 2.0, 64)
    q = flux_profile(2.0 - g.centers, g)
    expected = np.exp(g.log_face_area[1:-1])
    assert q.shape == (63,)
    assert np.max(np.abs(q - expected)) < 1e-12 * np.max(expected)


def test_sums_past_the_double_range_are_range_errors(pe4):
    # finite terms whose sum passes 1.8e308: math.fsum raises OverflowError
    # there, which once escaped both exports
    g = build_grid(pe4, 0.99999 * overflow_safe_radius(pe4), 20_000)
    profile = np.full(g.N, 2e7)
    steps = np.where(np.arange(g.N) % 2, 0.0, 1e4)
    assert np.all(np.isfinite(np.exp(g.log_cell_measure) * profile))
    assert np.all(np.isfinite(face_variation_terms(steps, g, pe4)))
    with pytest.raises(RangeError, match="^weighted sum overflows double precision$"):
        weighted_sum(g, profile)
    with pytest.raises(RangeError, match="^total variation overflows double precision$"):
        total_variation(steps, g, pe4)


def test_a_product_past_the_double_range_is_a_range_error(pe4):
    # one cell's mu * u overflows: numpy once warned and the sum read inf
    g = build_grid(pe4, 0.99999 * overflow_safe_radius(pe4), 20_000)
    profile = np.zeros(g.N)
    profile[-1] = 1e10
    with pytest.raises(RangeError, match="^weighted sum overflows double precision$"):
        weighted_sum(g, profile)
    with pytest.raises(RangeError, match="^weighted sum overflows double precision$"):
        weighted_sum(g, profile, np.zeros(g.N))  # inf * 0 is NaN, not 0


def test_flux_overflow_names_its_face():
    # sigma is tiny in 343 dimensions, so the grid's sigma * A budget lets
    # the area A = r^342 overflow on its own past r = 7.96
    g = build_grid(euclidean(343), 10.0, 64)
    with pytest.raises(RangeError, match="^flux overflows at face r=7.96875; reduce R_max$"):
        flux_profile(10.0 - g.centers, g)


def test_flux_threshold_crossing(euclid3):
    # blowup's r_t and delta_t: the first interior face whose complement flux
    # passes the q threshold, 10x the noise floor, and the flux there
    controls = SolveControls(n_cells=128, step_tol=1e-5)
    g = build_grid(euclid3, 3.0, controls.n_cells, jump_radii=(1.0,))
    op = assemble(g, euclid3, DIRICHLET)
    u0 = np.stack([project_datum(d, g) for d in (constant_one(), ball_indicator(1.0))], axis=1)
    (state,) = advance_states(op, u0, [0.05], controls)
    q = flux_profile(state[:, 0] - state[:, 1], g)
    js = [64, 100]  # the faces at r = 1.5 and 2.34375
    _, fitted, _ = _blowup_at(euclid3, g, state, js, 1e-4)
    r_t, delta_t = fitted["r_t"], fitted["delta_t"]
    k = g.face_index(r_t) - 1
    assert k >= 0 and delta_t == q[k] > 1e-3
    # every face before the crossing stays at or below the bar
    assert np.all(q[:k] <= 1e-3)
    # no crossing when the bar is impossibly high
    _, fitted, _ = _blowup_at(euclid3, g, state, js, 1e11)
    assert (fitted["r_t"], fitted["delta_t"]) == (None, None)


def test_aitken_exact_on_geometric_tails():
    rng = np.random.default_rng(41)
    for trial in range(30):
        limit = float(rng.uniform(-5, 5))
        amp = float(rng.uniform(0.1, 2.0))
        ratio = float(rng.uniform(0.2, 0.75))
        hs = [0.1 * 2.0 ** -k for k in range(6)]
        series = [(h, limit + amp * ratio ** k) for k, h in enumerate(hs)]
        out = extrapolate_limit(series)
        assert abs(out.limit - limit) < 1e-9 * max(1.0, abs(limit)), (
            f"trial {trial}: aitken missed geometric limit by {out.limit - limit:.2e}")


def test_confidence_reflects_remaining_correction():
    # a nearly converged geometric tail is trusted; one whose correction is a
    # large fraction of the limit is not, even though both extrapolate exactly
    close = [(0.1 * 2.0 ** -k, 10.0 + 0.05 * 0.5 ** k) for k in range(5)]
    assert not extrapolate_limit(close).low_confidence
    far = [(0.1 * 2.0 ** -k, 0.1 + 3.0 * 0.5 ** k) for k in range(5)]
    assert extrapolate_limit(far).low_confidence


def test_extrapolation_flags_non_contracting_series():
    series = [(0.1, 1.0), (0.05, 2.0), (0.025, 1.5), (0.0125, 1.9)]
    out = extrapolate_limit(series)
    assert out.low_confidence, "oscillating differences must lower confidence"


def test_extrapolation_trusts_roundoff_wobble_after_convergence():
    # pole values of flat R^3 at t = 0.1 on 1023 cells: settled at 1 from
    # the third level on, then moving only by roundoff (3e-14, then 3.5e-13)
    series = [(0.790569415042, 0.9171561272343158),
              (0.395284707521, 0.9999988861715359),
              (0.263523138347, 1.000000000000224),
              (0.197642353761, 1.000000000000193),
              (0.158113883008, 0.9999999999998452)]
    assert not extrapolate_limit(series).low_confidence


def test_extrapolation_validation():
    with pytest.raises(InvalidArgumentError):
        extrapolate_limit([(0.1, 1.0), (0.05, 1.1)])
    with pytest.raises(InvalidArgumentError):
        extrapolate_limit([(0.1, 1.0), (0.2, 1.1), (0.05, 1.2)])


def test_constant_series_short_circuits():
    out = extrapolate_limit([(0.1, 2.0), (0.05, 2.0), (0.025, 2.0)])
    assert out.limit == 2.0 and out.error_indicator == 0.0
    assert not out.low_confidence


def test_grid_mismatch_is_an_error(euclid3):
    g = build_grid(euclid3, 2.0, 64)
    h = build_grid(euclid3, 2.0, 96)
    u = project_datum(ball_indicator(1.0), h)
    with pytest.raises(InvalidArgumentError):
        total_variation(u, g, euclid3)
