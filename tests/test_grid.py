"""Meshes: face ladders, jump snapping, log-space cell measures."""

import math

import numpy as np
import pytest

from heatlab import (
    InvalidArgumentError,
    RangeError,
    ball_volume,
    build_grid,
    grid_from_faces,
    subgrid,
)


def test_uniform_grid_shape(euclid3):
    g = build_grid(euclid3, 2.0, 64)
    assert g.N == 64 and g.R == 2.0
    assert g.faces.shape == (65,) and g.centers.shape == (64,)
    assert g.faces[0] == 0.0 and g.faces[-1] == 2.0
    widths = np.diff(g.faces)
    assert np.allclose(widths, 2.0 / 64), "uniform grid must have equal cells"
    assert math.isinf(g.log_face_area[0]) and g.log_face_area[0] < 0


def test_cell_measures_sum_to_ball_volume(euclid3, gauss):
    # both share one quadrature, so each also meets a closed form: flat R^3,
    # 4 pi R^3 / 3; Gaussian r^2 e^{-r^2}, by parts,
    # 4 pi [(sqrt(pi) / 4) erf(R) - (R / 2) e^{-R^2}]
    R = 3.0
    closed = {euclid3: 4 * math.pi * R ** 3 / 3,
              gauss: 4 * math.pi * (math.sqrt(math.pi) / 4 * math.erf(R)
                                    - R / 2 * math.exp(-R ** 2))}
    for m in (euclid3, gauss):
        g = build_grid(m, R, 256)
        total = math.fsum(np.exp(g.log_cell_measure))
        vol = ball_volume(m, R)
        assert abs(total - vol) < 1e-10 * vol, f"measure sum off on {m.family}"
        for got in (total, vol):
            assert abs(got - closed[m]) < 1e-10 * closed[m], m.family


def test_cell_measures_survive_huge_weights(pe4):
    # at R = 5 the outer face area is ~ exp(625); only logs stay finite
    g = build_grid(pe4, 5.0, 128)
    assert np.all(np.isfinite(g.log_cell_measure))
    assert g.log_cell_measure[-1] > 600.0
    mu = np.exp(g.log_cell_measure)
    assert np.all(np.isfinite(mu)) and np.all(mu > 0)


def test_jump_snapping_places_faces(euclid3):
    g = build_grid(euclid3, 4.0, 100, jump_radii=(1.0, 2.5))
    for r in (1.0, 2.5):
        idx = g.face_index(r)
        assert g.faces[idx] == r, f"face not snapped exactly to {r}"
    # snapping moved at most half a cell and kept monotonicity
    assert np.all(np.diff(g.faces) > 0)


def test_jump_snapping_rejects_collisions(euclid3):
    with pytest.raises(InvalidArgumentError):
        build_grid(euclid3, 4.0, 20, jump_radii=(1.0, 1.01))
    with pytest.raises(InvalidArgumentError):
        build_grid(euclid3, 4.0, 64, jump_radii=(4.5,))


def test_face_index_rejects_non_faces(euclid3):
    g = build_grid(euclid3, 2.0, 64)
    assert g.face_index(0.0) == 0
    assert g.face_index(2.0) == 64
    with pytest.raises(InvalidArgumentError):
        g.face_index(0.7134)


def test_build_grid_validation(euclid3, pe4):
    with pytest.raises(InvalidArgumentError):
        build_grid(euclid3, -1.0, 64)
    with pytest.raises(InvalidArgumentError):
        build_grid(euclid3, 2.0, 8)
    # area at R = 6 has log ~ 1296, past any representable output
    with pytest.raises(RangeError):
        build_grid(pe4, 6.0, 64)


def test_grid_from_faces_explicit(euclid3):
    faces = np.concatenate([[0.0], np.sort(np.random.default_rng(3).uniform(0.01, 2.0, 31))])
    g = grid_from_faces(euclid3, faces)
    assert g.N == 31
    assert np.array_equal(g.faces, faces)
    with pytest.raises(InvalidArgumentError):
        grid_from_faces(euclid3, faces[::-1])
    with pytest.raises(InvalidArgumentError):
        grid_from_faces(euclid3, faces[:10])


def test_subgrid_is_a_prefix(euclid3):
    g = build_grid(euclid3, 4.0, 128, jump_radii=(1.0,))
    s = subgrid(g, 64)
    assert s.N == 64
    assert np.array_equal(s.faces, g.faces[:65])
    assert np.array_equal(s.log_cell_measure, g.log_cell_measure[:64])
    assert s.R == g.faces[64]
    with pytest.raises(InvalidArgumentError):
        subgrid(g, 8)
    with pytest.raises(InvalidArgumentError):
        subgrid(g, 200)


def test_quadrature_matches_closed_form_cells(pe4):
    # cell measure of [a, b] against exp(r^4) weight, checked by series-free
    # high-order quadrature of the integrand done independently here
    from scipy.integrate import quad

    g = build_grid(pe4, 2.0, 32)
    i = 20
    a, b = g.faces[i], g.faces[i + 1]
    ref, err = quad(lambda r: 4 * math.pi * r * r * math.exp(r ** 4), a, b,
                    epsabs=0.0, epsrel=1e-13)
    got = np.exp(g.log_cell_measure)[i]
    assert abs(got - ref) < 1e-11 * ref, f"cell measure off: {got} vs {ref}"
