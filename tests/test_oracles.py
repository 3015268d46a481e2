"""Closed forms on flat R^3 that owe nothing to the stepper or the walk.

Each oracle is checked on the code as it is and on a planted defect, which
must break the same bound: a bound that no defect can break is no check.
"""

import math

import pytest

import heatlab.solver
from heatlab import (DIRICHLET, NEUMANN, SolveControls, assemble, ball_indicator,
                     build_grid, euclidean, project_datum, total_variation)
from heatlab.experiments import completeness_probe

FLAT = euclidean(3)


def _ball_survival(t: float, R: float) -> float:
    """P^R_t 1 at the pole of the Dirichlet ball of radius R in flat R^3:
    2 sum_{k>=1} (-1)^{k+1} exp(-k^2 pi^2 t / R^2)."""
    return 2.0 * math.fsum((-1) ** (k + 1) * math.exp(-k * k * math.pi ** 2 * t / R ** 2)
                           for k in range(1, 400))


def _completeness_misses(monkeypatch, defect: str | None) -> list[float]:
    """completeness_euclidean's rows (t = 0.1, 1,024 cells, step_tol 1e-6)
    less the closed form, walked in this process with ``defect`` planted."""
    monkeypatch.setattr(heatlab.solver, "can_fork", lambda: False)
    if defect == "neumann_wall":  # every level conserves its mass
        monkeypatch.setattr(heatlab.solver, "assemble",
                            lambda g, manifold, bc: assemble(g, manifold, NEUMANN))
    elif defect == "doubled_replay":  # replayed levels run to 2t
        replay = heatlab.solver._replay
        monkeypatch.setattr(heatlab.solver, "_replay", lambda op, u, steps, n: replay(
            op, u, [(k, 2.0 * h) for k, h in steps], n))
    rep = completeness_probe(FLAT, 0.1, SolveControls(n_cells=1024, step_tol=1e-6))
    return [row["m_at_0"] - _ball_survival(0.1, row["R"])
            for row in rep.series["completeness"]]


def test_completeness_rows_match_the_flat_ball_closed_form(monkeypatch):
    # every row of completeness_euclidean's walk, the recorded level and the
    # four replayed ones, is the Dirichlet ball's survival at the pole up to
    # the stepper's time error (-1.6e-4 on the first level)
    misses = _completeness_misses(monkeypatch, None)
    assert len(misses) == 5
    assert max(map(abs, misses)) <= 5e-4, misses


@pytest.mark.parametrize("defect", ["neumann_wall", "doubled_replay"])
def test_the_flat_ball_closed_form_catches_a_planted_defect(monkeypatch, defect):
    misses = _completeness_misses(monkeypatch, defect)
    assert max(map(abs, misses)) > 5e-4, misses


def _resolvent_miss(lam: float, factor_step: float) -> float:
    """The relative miss of TV(lam R_lam 1_B) on the unit ball against its
    closed form 4 pi - 8 pi (1 - (1 + sqrt(lam)) e^{-sqrt(lam)}) / lam, flat,
    R = 4, 1,024 cells: one implicit-Euler step of ``factor_step``, which
    is 1 / lam, from D 1_B."""
    g = build_grid(FLAT, 4.0, 1024, (1.0,))
    op = assemble(g, FLAT, DIRICHLET)
    d, e = heatlab.solver._factor(op, factor_step)
    v, info = heatlab.solver.dpttrs(d, e, op.cell_weights * project_datum(ball_indicator(1.0), g))
    assert info == 0
    root = math.sqrt(lam)
    exact = 4.0 * math.pi - 8.0 * math.pi * (1.0 - (1.0 + root) * math.exp(-root)) / lam
    return abs(total_variation(v, g, FLAT) / exact - 1.0)


@pytest.mark.parametrize("lam", [1e2, 1e3, 1e4])
def test_one_implicit_step_is_the_resolvents_closed_form(lam):
    # lam R_lam = (I - L / lam)^{-1} is one implicit-Euler step of 1 / lam
    # with no time error: 5.9e-9, 5.5e-14 and 8.0e-15 relative; a factor
    # at 2 / lam misses by 2.0e-2, 2.0e-3 and 2.0e-4
    assert _resolvent_miss(lam, 1.0 / lam) <= 1e-7
    assert _resolvent_miss(lam, 2.0 / lam) > 1e-7
