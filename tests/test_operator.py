"""Discrete operator: symmetry, sign structure, conservation."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from heatlab import (
    DIRICHLET,
    NEUMANN,
    InvalidArgumentError,
    RangeError,
    assemble,
    build_grid,
    euclidean,
    weighted_sum,
)
from heatlab.operator import SYMMETRIC_HALF_SPAN


def test_interior_rows_annihilate_constants(euclid3):
    g = build_grid(euclid3, 2.0, 96)
    op = assemble(g, euclid3, NEUMANN)
    resid = op.apply(np.ones(g.N))
    k = op.conductance
    scale = np.max((k[:-1] + k[1:]) / op.cell_weights)
    assert np.max(np.abs(resid)) < 1e-13 * scale, "Neumann operator must kill constants"

    opd = assemble(g, euclid3, DIRICHLET)
    resid = opd.apply(np.ones(g.N))
    assert np.max(np.abs(resid[:-1])) < 1e-13 * scale
    assert resid[-1] < 0, "Dirichlet ghost must drain the last cell"


def test_sign_structure(pe4):
    g = build_grid(pe4, 3.0, 128)
    for bc in (DIRICHLET, NEUMANN):
        op = assemble(g, pe4, bc)
        k = op.conductance
        # L has nonnegative couplings and a negative diagonal
        assert np.all(op.cell_weights > 0)
        assert np.all(k[1:-1] > 0) and k[0] == 0.0 and k[-1] >= 0.0


def test_weighted_symmetry(pe4):
    # <L u, v>_mu == <u, L v>_mu for random vectors, relative to |u||v| scale
    g = build_grid(pe4, 3.0, 128)
    op = assemble(g, pe4, DIRICHLET)
    rng = np.random.default_rng(11)
    for trial in range(50):
        u = rng.standard_normal(g.N)
        v = rng.standard_normal(g.N)
        a = weighted_sum(g, op.apply(u), v)
        b = weighted_sum(g, u, op.apply(v))
        scale = max(abs(a), abs(b), 1e-300)
        assert abs(a - b) < 1e-12 * scale, f"symmetry broken in trial {trial}: {a} vs {b}"


def test_neumann_conserves_mass_infinitesimally(gauss):
    # row sums against the measure vanish: mass of L u is zero for any u
    g = build_grid(gauss, 3.0, 96)
    op = assemble(g, gauss, NEUMANN)
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = rng.uniform(0.0, 2.0, g.N)
        drift = weighted_sum(g, op.apply(u))
        assert abs(drift) < 1e-12 * weighted_sum(g, np.abs(u)), f"mass drift {drift}"


def test_apply_matches_banded_solve(euclid3):
    # D (I - dt L) x = D u solved in banded form must invert apply exactly
    g = build_grid(euclid3, 2.0, 64)
    op = assemble(g, euclid3, DIRICHLET)
    rng = np.random.default_rng(2)
    u = rng.uniform(0.0, 1.0, g.N)
    dt = 1e-3
    diag, off = op.banded(dt)
    ab = np.zeros((3, g.N))  # scipy's layout: super-, main and sub-diagonal
    ab[0, 1:], ab[1], ab[2, :-1] = off, diag, off
    x = solve_banded((1, 1), ab, op.cell_weights * u)
    back = x - dt * op.apply(x)
    assert np.max(np.abs(back - u)) < 1e-12, "banded layout disagrees with apply"


def test_apply_on_stacked_states(euclid3):
    g = build_grid(euclid3, 2.0, 64)
    op = assemble(g, euclid3, DIRICHLET)
    rng = np.random.default_rng(9)
    stack = rng.standard_normal((g.N, 3))
    out = op.apply(stack)
    for k in range(3):
        col = op.apply(stack[:, k])
        assert np.array_equal(out[:, k], col), f"stacked apply differs in column {k}"


def test_apply_rejects_wrong_length(euclid3):
    g = build_grid(euclid3, 2.0, 64)
    op = assemble(g, euclid3, DIRICHLET)
    with pytest.raises(InvalidArgumentError):
        op.apply(np.zeros(63))
    with pytest.raises(InvalidArgumentError):
        assemble(g, euclid3, "robin")


def test_coefficients_stay_order_one_under_huge_weights(pe4):
    # weights reach e^600 but coefficient ratios must remain moderate
    g = build_grid(pe4, 5.0, 256)
    op = assemble(g, pe4, DIRICHLET)
    k = op.conductance
    stiffness = (k[:-1] + k[1:]) / op.cell_weights  # max |diag L|
    assert np.all(np.isfinite(stiffness))
    assert np.max(stiffness) < 1e9, "coefficients must not inherit the weight scale"


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
def test_symmetric_form_is_the_weighted_operator(pe4, bc):
    # D = exp(log mu - c) and the conductances sigma * A(face) / dc, with A
    # from the geometry and dc the center spacing or, at the Dirichlet
    # wall, the last center's distance to it; rows that conserve mass
    g = build_grid(pe4, 5.0, 256)
    op = assemble(g, pe4, bc)
    weights, k = op.cell_weights, op.conductance
    c = 0.5 * (g.log_cell_measure.min() + g.log_cell_measure.max())
    assert np.allclose(weights, np.exp(g.log_cell_measure - c), rtol=1e-14, atol=0)
    dc = np.append(np.diff(g.centers), g.faces[g.N] - g.centers[g.N - 1])
    want = np.exp(pe4.log_sphere_constant + pe4.log_area(g.faces[1:]) - c) / dc
    if bc == NEUMANN:
        want[-1] = 0.0
    assert k.shape == (g.N + 1,) and k[0] == 0.0
    assert np.allclose(k[1:], want, rtol=1e-12, atol=0)
    # the band's rows sum to D, less the wall's drain, up to roundoff
    dt = 1e-3
    diag, off = op.banded(dt)
    rows = diag - weights
    rows[:-1] += off
    rows[1:] += off
    rows[-1] -= dt * k[-1]
    assert np.max(np.abs(rows)) <= 4e-16 * np.max(diag)


def test_assemble_rejects_a_measure_span_past_double_range(pe4):
    # exp(+r^4) up to its overflow-safe radius stays inside the span; the
    # flat measures of 343 dimensions, r^342 dr from the pole cell out, do
    # not, and D would leave double range even in units of exp(c)
    def half_span(g):
        return 0.5 * (g.log_cell_measure.max() - g.log_cell_measure.min())

    g = build_grid(pe4, 5.13, 1315)
    assert half_span(g) <= SYMMETRIC_HALF_SPAN
    assert np.all(np.isfinite(assemble(g, pe4, DIRICHLET).cell_weights))
    flat = euclidean(343)
    g = build_grid(flat, 8.0, 64)
    assert half_span(g) > SYMMETRIC_HALF_SPAN
    with pytest.raises(RangeError, match=r"^log cell measures span \d.*; reduce "
                       r"R, n_cells or the dimension$"):
        assemble(g, flat, DIRICHLET)
