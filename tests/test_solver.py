"""Time stepping: accuracy against an independent kernel, structure, replay."""

import contextlib
import itertools
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import solve_banded

import heatlab.grid
import heatlab.solver
from heatlab import (
    DIRICHLET,
    NEUMANN,
    InvalidArgumentError,
    NumericalFailure,
    RangeError,
    SolveControls,
    WeightedOperator,
    advance_states,
    assemble,
    ball_indicator,
    build_grid,
    constant_one,
    exhaustion_levels,
    grid_from_faces,
    overflow_safe_radius,
    piecewise,
    project_datum,
    total_variation,
    weighted_sum,
)
from heatlab.experiments import _walled_ball, completeness_probe, degiorgi_sweep
from heatlab.geometry import LOG_MAX_GRID, euclidean, power_exp_weight
from heatlab.solver import _replay
from conftest import (ball_heat_closed_form, ball_heat_quadrature, check_row,
                      implicit_step, minus_laplacian_solve, record_walk,
                      time_exact_states)


def test_reference_routes_agree():
    # the closed form and the direct quadrature are independent codes; they
    # must agree to near machine precision before either is trusted
    rng = np.random.default_rng(17)
    for _ in range(25):
        r = float(rng.uniform(0.0, 3.5))
        t = float(rng.uniform(0.005, 0.4))
        a = ball_heat_closed_form(r, t)
        b = ball_heat_quadrature(r, t)
        assert abs(a - b) < 1e-6 * max(a, 1e-12) + 1e-12, (
            f"reference routes disagree at r={r:.4f}, t={t:.4f}: {a} vs {b}")


def test_reference_frozen_values():
    # spot values pinned so silent edits to the reference cannot drift it
    frozen = [
        (0.0, 0.05, 0.9814338645369568),
        (1.0, 0.05, 0.3738433740320388),
        (2.0, 0.05, 0.0003576827988752338),
        (0.5, 0.10, 0.6781179929197743),
        (0.0, 0.10, 0.8282028557032668),
    ]
    for r, t, val in frozen:
        got = ball_heat_closed_form(r, t)
        assert abs(got - val) < 1e-13, f"reference changed at (r={r}, t={t}): {got}"


def test_projection_is_exact_on_snapped_grid(euclid3):
    g = build_grid(euclid3, 4.0, 128, jump_radii=(1.0,))
    u = project_datum(ball_indicator(1.0), g)
    inside = g.centers < 1.0
    assert np.array_equal(u[inside], np.ones(inside.sum()))
    assert np.array_equal(u[~inside], np.zeros((~inside).sum()))


def test_projection_averages_unsnapped_cells(euclid3):
    # without a snapped face the cut cell takes the measure fraction inside
    g2 = build_grid(euclid3, 4.0, 96)  # 1.0 falls strictly inside a cell
    u2 = project_datum(ball_indicator(1.0), g2)
    mass = weighted_sum(g2, u2)
    vol = 4 * math.pi / 3
    assert abs(mass - vol) < 1e-10 * vol, "projection must preserve the datum mass"
    assert np.all(u2 >= 0) and np.all(u2 <= 1)


def test_evolution_matches_reference_kernel(euclid3):
    controls = SolveControls(n_cells=512, step_tol=1e-6)
    g = build_grid(euclid3, 4.0, controls.n_cells, jump_radii=(1.0,))
    op = assemble(g, euclid3, DIRICHLET)
    u0 = project_datum(ball_indicator(1.0), g)
    (u,) = advance_states(op, u0, [0.05], controls)
    ref = np.array([ball_heat_closed_form(float(r), 0.05) for r in g.centers])
    err = weighted_sum(g, np.abs(u - ref)) / weighted_sum(g, np.abs(ref))
    assert err < 2e-3, f"kernel error {err:.3e} at N=512"


# relative errors (TV, weighted L1) of the stepper at step_tol 1e-6 against
# the time-exact reference at each stop of TIME_ERROR_STOPS, for the unit
# ball with the wall at R = 4 and N = 1024, recorded with the earlier
# full-step error estimate; flat TV below 1e-12 is roundoff, as flat R^3
# conserves the ball's TV until heat reaches the wall
TIME_ERROR_STOPS = [0.0025, 0.005, 0.01, 0.02, 0.05]
TIME_ERRORS = {
    "euclid3": [(4.95e-13, 1.15e-4), (4.33e-13, 1.36e-4), (3.36e-13, 1.58e-4),
                (6.59e-9, 1.81e-4), (5.43e-6, 2.00e-4)],
    "gauss": [(3.60e-8, 7.38e-5), (1.20e-7, 8.65e-5), (4.01e-7, 1.00e-4),
              (1.33e-6, 1.12e-4), (1.70e-5, 1.16e-4)],
}
# errors at or below this floor are roundoff, not time error
TIME_ERROR_FLOOR = 1e-10


@pytest.mark.parametrize("family", sorted(TIME_ERRORS))
def test_time_error_against_the_time_exact_reference(request, family):
    # the stepper against exp(tL) u0 on the same grid and operator: the gap
    # is time error alone; each error stays within 1.1 times its recorded
    # value, and at step_tol / 4 it falls to about half (first order in
    # time, step ~ tol^(1/2)), so the reference is the limit it converges to
    m = request.getfixturevalue(family)
    g = build_grid(m, 4.0, 1024, jump_radii=(1.0,))
    op = assemble(g, m, DIRICHLET)
    u0 = project_datum(ball_indicator(1.0), g)
    exact = time_exact_states(m, op, u0, TIME_ERROR_STOPS)

    def errors(step_tol):
        got = advance_states(op, u0, TIME_ERROR_STOPS,
                             SolveControls(n_cells=1024, step_tol=step_tol))
        return [(abs(total_variation(a, g, m) / total_variation(b, g, m) - 1),
                 weighted_sum(g, np.abs(a - b)) / weighted_sum(g, np.abs(b)))
                for a, b in zip(got, exact)]

    coarse, fine = errors(1e-6), errors(2.5e-7)
    for t, recorded, err, finer in zip(TIME_ERROR_STOPS, TIME_ERRORS[family],
                                       coarse, fine):
        for name, want, e, f in zip(("TV", "L1"), recorded, err, finer):
            assert e <= max(1.1 * want, TIME_ERROR_FLOOR), (t, name, e, want)
            if e > TIME_ERROR_FLOOR:
                assert 0.35 * e <= f <= 0.65 * e, (t, name, e, f)


def test_time_exact_reference_refuses_other_weights(pe4):
    g = build_grid(pe4, 2.0, 64, jump_radii=(1.0,))
    op = assemble(g, pe4, DIRICHLET)
    with pytest.raises(ValueError, match="only flat or Gaussian"):
        time_exact_states(pe4, op, np.ones(g.N), [0.01])


def test_neumann_mass_is_conserved(gauss):
    controls = SolveControls(n_cells=160, step_tol=1e-5)
    g = build_grid(gauss, 3.0, controls.n_cells, jump_radii=(1.0,))
    op = assemble(g, gauss, NEUMANN)
    u0 = project_datum(ball_indicator(1.0), g)
    m0 = weighted_sum(g, u0)
    m1 = weighted_sum(g, advance_states(op, u0, [0.2], controls)[0])
    assert abs(m1 - m0) < 1e-11 * m0, f"Neumann mass drifted by {m1 - m0:.3e}"


def test_dirichlet_mass_decreases(euclid3):
    controls = SolveControls(n_cells=160, step_tol=1e-5)
    g = build_grid(euclid3, 3.0, controls.n_cells, jump_radii=(1.0,))
    op = assemble(g, euclid3, DIRICHLET)
    u0 = project_datum(ball_indicator(1.0), g)
    (u1,) = advance_states(op, u0, [0.1], controls)
    assert weighted_sum(g, u1) < weighted_sum(g, u0)


def test_maximum_principle_under_stepping(pe4):
    # values stay inside the initial hull at every accepted half step
    controls = SolveControls(n_cells=128, step_tol=1e-5)
    g = build_grid(pe4, 3.0, controls.n_cells)
    op = assemble(g, pe4, DIRICHLET)
    rng = np.random.default_rng(23)
    u0 = rng.uniform(0.2, 0.9, g.N)
    worst = [0.0]

    def watch(_, u, mid, fine):
        for after in (mid, fine):
            over = max(np.max(after) - np.max(u0), np.min(u0) - np.min(after), 0.0)
            # Dirichlet lets the minimum fall toward 0, never below
            under = max(-np.min(after), 0.0)
            worst[0] = max(worst[0], over if np.max(after) > np.max(u0) else 0.0, under)

    advance_states(op, u0.copy(), [0.05], controls, record=watch)
    assert worst[0] < 1e-12, f"hull violated by {worst[0]:.3e}"


def _keeping(pairs: list):
    """A ``record`` that keeps each accepted step's (stop index, h) pair."""
    return lambda pair, *_: pairs.append(pair)


def _walk_setup(euclid3):
    controls = SolveControls(n_cells=128, step_tol=1e-5)
    g = build_grid(euclid3, 3.0, controls.n_cells, jump_radii=(1.0,))
    op = assemble(g, euclid3, DIRICHLET)
    chi = project_datum(ball_indicator(1.0), g)
    return controls, g, op, chi


def test_stacked_columns_stay_linear(euclid3):
    # evolving [1, chi, 1 - chi] jointly must keep column2 = col0 - col1,
    # at the end time and at every stop of one trajectory
    controls, g, op, chi = _walk_setup(euclid3)
    states = np.stack([np.ones(g.N), chi, 1.0 - chi], axis=1)
    stops = [0.005, 0.02, 0.05, 0.1]
    outs = [*advance_states(op, states, [0.1], controls),
            *advance_states(op, states, stops, controls)]
    for t, out in zip([0.1, *stops], outs):
        gap = np.max(np.abs(out[:, 2] - (out[:, 0] - out[:, 1])))
        assert gap < 1e-12, f"linear identity broken by {gap:.3e} at t={t}"


def test_evolve_places_the_wall_and_counts_the_cells(euclid3, pe4):
    # data evolve jointly on the one-level walk of the drivers' wall rule
    # (experiments._walled_ball), whose wall sits max(2, 8 sqrt(last stop))
    # past the reading radius; n_cells fills the whole ball, or R_cells at
    # one spacing to the wall.  Both range errors come from the rule itself,
    # before it lays out a walk
    controls = SolveControls(n_cells=64, step_tol=1e-5)
    data = (constant_one(), ball_indicator(1.0))
    g, states, notes = _walled_ball(euclid3, data, 3.0, [0.01, 0.25], controls)()
    assert (g.R, g.N, notes) == (7.0, 64, [])
    assert [s.shape for s in states] == [(64, 2)] * 2
    assert 1.0 in g.faces
    g, _, _ = _walled_ball(euclid3, data, 3.0, [0.01], controls, R_cells=2.0)()
    assert (g.R, g.N) == (5.0, 160)
    safe = overflow_safe_radius(pe4)
    g, _, notes = _walled_ball(pe4, data, 4.5, [0.01], controls)()
    assert (g.R, notes) == (safe, [f"solve radius capped at {safe:.6g}"])
    with pytest.raises(RangeError, match="no interior face"):
        _walled_ball(pe4, data, 5.12, [0.01], controls)
    with pytest.raises(RangeError, match="reading radius 5.2 is not below"):
        _walled_ball(pe4, data, 5.2, [0.01], controls)


def test_first_stop_is_the_one_stop_run(euclid3):
    # one trajectory through several stops takes, up to the first stop,
    # exactly the ladder of a run that ends there
    controls, g, op, chi = _walk_setup(euclid3)
    states = advance_states(op, chi, [0.01, 0.03, 0.05], controls)
    assert len(states) == 3
    assert np.array_equal(states[0], advance_states(op, chi, [0.01], controls)[0])
    # the later stops agree with their own one-stop runs to step accuracy
    for t, got in zip((0.03, 0.05), states[1:]):
        (alone,) = advance_states(op, chi, [t], controls)
        gap = weighted_sum(g, np.abs(got - alone)) / weighted_sum(g, np.abs(alone))
        assert gap < 1e-4, f"stop t={t} off its one-stop run by {gap:.3e}"


@pytest.mark.parametrize("stops", [
    [0.02, 0.01],
    [0.01, 0.01, 0.02],
    [0.01, math.inf],
    [math.nan],
    [0.01, math.nan],
    [],
    # True == 1, but a boolean is no time
    [True],
], ids=["decreasing", "repeated", "infinite", "nan", "nan_later", "empty",
        "boolean"])
def test_bad_stop_times_are_rejected(euclid3, stops):
    controls, g, op, chi = _walk_setup(euclid3)
    with pytest.raises(InvalidArgumentError):
        advance_states(op, chi, stops, controls)


@pytest.mark.parametrize("stops", [0.05, [], [0.0], [True], [0.02, 0.01],
                                   [0.01, math.inf]],
                         ids=["scalar", "empty", "zero", "boolean", "decreasing",
                              "infinite"])
def test_every_trajectory_takes_a_stop_list_from_zero(euclid3, stops):
    # one rule for every entry point: a non-empty, strictly increasing list
    # of positive finite times, checked when the call is made
    controls, g, op, chi = _walk_setup(euclid3)
    for call in (lambda: advance_states(op, chi, stops, controls),
                 lambda: exhaustion_levels(euclid3, ball_indicator(1.0), stops, controls,
                                           radii=(2.0,))):
        with pytest.raises(InvalidArgumentError):
            call()


def test_step_budget_spans_the_whole_trajectory(euclid3, monkeypatch):
    controls, g, op, chi = _walk_setup(euclid3)
    solves = [0]
    solve = heatlab.solver.dpttrs

    def counting(*args, **kwargs):
        solves[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(heatlab.solver, "dpttrs", counting)
    advance_states(op, chi, [0.01], controls)
    first = solves[0] // 2  # two solves per attempted step
    monkeypatch.setattr(heatlab.solver, "MAX_STEPS", first)
    advance_states(op, chi, [0.01], controls)  # reaches the first stop
    with pytest.raises(NumericalFailure):
        advance_states(op, chi, [0.01, 0.05], controls)


@pytest.mark.parametrize("columns", [1, 2, 3])
def test_shared_half_step_band_is_two_independent_steps_bitwise(euclid3, columns):
    # both half steps of a step share one factor; the first solve must leave
    # it intact, so every accepted state is two independent steps bit for bit
    controls, g, op, chi = _walk_setup(euclid3)
    extra = np.random.default_rng(3).uniform(0.0, 1.0, (g.N, columns - 1))
    u0 = chi if columns == 1 else np.column_stack([chi, extra])
    stops = [0.004, 0.01]
    steps = []
    adaptive = advance_states(op, u0, stops, controls, record=_keeping(steps))
    replayed = _replay(op, u0, steps, len(stops))
    u = u0
    for k, (got, again) in enumerate(zip(adaptive, replayed)):
        for dt in (h for stop, h in steps if stop == k):
            mid = implicit_step(op, 0.5 * dt, u)
            u = implicit_step(op, 0.5 * dt, mid)
        assert np.array_equal(got, u), "adaptive path differs from independent steps"
        assert np.array_equal(again, u), "replay path differs from independent steps"


def test_one_factorization_per_distinct_step_size(euclid3, monkeypatch):
    # a trajectory factors each half-step size h/2 once, and solves only
    # the two half steps of each attempt; a replay factors each run of one
    # size once
    controls, g, op, chi = _walk_setup(euclid3)
    counts = {"band": 0, "solve": 0}
    band, solve = WeightedOperator.banded, heatlab.solver.dpttrs

    def counting_band(self, *args):
        counts["band"] += 1
        return band(self, *args)

    def counting_solve(*args, **kwargs):
        counts["solve"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(WeightedOperator, "banded", counting_band)
    monkeypatch.setattr(heatlab.solver, "dpttrs", counting_solve)
    pairs = []
    advance_states(op, chi, [0.01], controls, record=_keeping(pairs))
    steps = [h for _, h in pairs]
    # this run rejects no attempt, so every factored size is a recorded one
    assert counts["solve"] == 2 * len(steps) > 0
    halves = {0.5 * h for h in steps}
    assert counts["band"] == len(halves) < len(steps)
    # a replay solves only with the half steps; these sizes never come back
    runs = 1 + sum(a != b for a, b in zip(steps, steps[1:]))
    assert runs == len(halves)
    counts.update(band=0, solve=0)
    _replay(op, chi, pairs, 1)
    assert counts == {"band": runs, "solve": 2 * len(steps)}


def _lattice_size(k: int) -> float:
    m = heatlab.solver.STEP_LATTICE
    base = [2 ** (j / m) for j in range(m)]
    return heatlab.solver.DT_INIT * base[k % m] * 2.0 ** (k // m)


def _on_lattice(h: float) -> bool:
    m = heatlab.solver.STEP_LATTICE
    k = round(m * math.log2(h / heatlab.solver.DT_INIT))
    return any(h == _lattice_size(j) for j in (k - 1, k, k + 1))


@pytest.mark.parametrize("step_tol", [1e-3, 1e-5, 1e-7])
@pytest.mark.parametrize("stops", [pytest.param([0.01], id="0.01"), [0.004, 0.01],
                                   [0.002, 0.0051, 0.01]])
def test_steps_round_down_onto_the_lattice(euclid3, monkeypatch, step_tol, stops):
    # every recorded step is a lattice size or ends exactly on its stop,
    # and the lattice size taken is the largest one within the proposal
    controls, g, op, chi = _walk_setup(euclid3)
    proposals = []
    snap = heatlab.solver._lattice_step

    def recording(dt):
        proposals.append((dt, snap(dt)))
        return proposals[-1][1]

    monkeypatch.setattr(heatlab.solver, "_lattice_step", recording)
    steps = []
    advance_states(op, chi, stops, replace(controls, step_tol=step_tol),
                   record=_keeping(steps))
    m = heatlab.solver.STEP_LATTICE
    for dt, h in proposals:
        assert _on_lattice(h) and h <= dt < _lattice_size(
            round(m * math.log2(h / heatlab.solver.DT_INIT)) + 1), (dt, h)
    t = 0.0
    lattice = {h for _, h in proposals}
    assert [k for k, _ in steps] == sorted(k for k, _ in steps)
    for i, (k, h) in enumerate(steps):
        if h not in lattice:  # clipped: the last step of stop k, onto it
            assert i + 1 == len(steps) or steps[i + 1][0] == k + 1
            assert t + h == stops[k], (t, h, stops[k])
        t = t + h


def _lattice_step_by_logs(h: float) -> float:
    """The largest lattice size at most ``h`` by the logarithm: from one size
    above the one log2 names, down to the first at most ``h``, and up while
    the next one is too (a size past the largest double counts as above)."""
    m, dt_init = heatlab.solver.STEP_LATTICE, heatlab.solver.DT_INIT

    def size(k: int) -> float:
        try:
            return math.ldexp(dt_init * 2.0 ** (k % m / m), k // m)
        except OverflowError:
            return math.inf

    k = math.floor(m * (math.log2(h) - math.log2(dt_init))) + 1
    while size(k) > h:
        k -= 1
    while size(k + 1) <= h:
        k += 1
    return size(k)


def test_the_lattice_table_gives_the_logarithms_step():
    # every size of the table, both float neighbours of each (but the one
    # below the table: proposals never fall below DT_MIN), DT_MIN, proposals
    # log-spaced from 1e-13 to 1e306, and the largest double
    table = heatlab.solver._LATTICE
    assert table[0] <= heatlab.solver.DT_MIN < table[1]
    probes = [heatlab.solver.DT_MIN, *np.geomspace(1e-13, 1e306, 20_001).tolist(),
              math.nextafter(math.inf, 0.0)]
    for size in table:
        probes += [size, math.nextafter(size, 0.0), math.nextafter(size, math.inf)]
    for h in probes:
        if h >= table[0]:
            assert heatlab.solver._lattice_step(h) == _lattice_step_by_logs(h), h.hex()


def test_a_stop_past_the_lattice_range_gives_a_result_or_a_heatlab_error(euclid3):
    # steps past ~1.8e301 once overflowed h / DT_INIT and 2.0 ** (k // 4)
    # in the lattice search, a bare OverflowError from deep in the loop
    op = assemble(build_grid(euclid3, 2.0, 16), euclid3, DIRICHLET)
    try:
        (u,) = advance_states(op, np.ones(16), [1e303], SolveControls(n_cells=16))
    except (InvalidArgumentError, RangeError, NumericalFailure):
        return
    assert np.all(np.isfinite(u))


def test_record_and_replay_are_identical(euclid3):
    controls = SolveControls(n_cells=128, step_tol=1e-5)
    g = build_grid(euclid3, 3.0, controls.n_cells, jump_radii=(1.0,))
    op = assemble(g, euclid3, DIRICHLET)
    u0 = project_datum(ball_indicator(1.0), g)
    steps: list = []
    (first,) = advance_states(op, u0.copy(), [0.05], controls, record=_keeping(steps))
    assert len(steps) >= 3 and {k for k, _ in steps} == {0}
    assert abs(math.fsum(h for _, h in steps) - 0.05) < 1e-12
    (second,) = _replay(op, u0.copy(), steps, 1)
    assert np.array_equal(first, second), "replay must reproduce the recorded run bitwise"

    # through several stops each pair names its stop, and the replay emits
    # the recorded state at each of them
    stops = [0.01, 0.03, 0.05]
    steps = []
    recorded = advance_states(op, u0, stops, controls, record=_keeping(steps))
    for k, (start, stop) in enumerate(zip([0.0, *stops], stops)):
        assert abs(math.fsum(h for j, h in steps if j == k) - (stop - start)) < 1e-12
    replayed = _replay(op, u0, steps, len(stops))
    for t, a, b in zip(stops, recorded, replayed):
        assert np.array_equal(a, b), f"replay differs from the recording at t={t}"
        assert a.flags.f_contiguous == b.flags.f_contiguous
    assert replayed[0] is not replayed[1] and u0.tobytes() == project_datum(
        ball_indicator(1.0), g).tobytes(), "a replay writes its own arrays only"


def test_record_hands_each_accepted_step_and_its_states(euclid3):
    # one call per accepted step, record((stop index, h), u, mid, fine): the
    # first u is the input and each later one the previous call's fine, the
    # pairs replay to the returned stops, and the last fine before stop i
    # is the state returned there
    controls, g, op, chi = _walk_setup(euclid3)
    u0 = _stacked(g, chi, 2)
    stops = [0.004, 0.01, 0.02]
    calls = []

    def record(pair, u, mid, fine):
        calls.append((pair, u.tobytes(), mid.tobytes(), fine.tobytes()))

    states = advance_states(op, u0, stops, controls, record=record)
    pairs = [pair for pair, *_ in calls]
    assert [k for k, _ in pairs] == sorted(k for k, _ in pairs) and pairs[-1][0] == 2
    assert calls[0][1] == u0.tobytes()
    assert all(u == fine for (_, _, _, fine), (_, u, _, _) in zip(calls, calls[1:]))
    assert [a.tobytes() for a in _replay(op, u0, pairs, len(stops))] == [
        a.tobytes() for a in states]
    last_fine = {pair[0]: fine for pair, _, _, fine in calls}
    assert [last_fine[i] for i in range(len(stops))] == [a.tobytes() for a in states]


@pytest.mark.parametrize("record", [[], (), "a", -1.0, math.nan],
                         ids=["list", "tuple", "text", "negative", "nan"])
def test_record_is_a_callable_or_none(euclid3, record):
    # a step ladder of () or [["a"]] once raised AttributeError or TypeError
    controls, g, op, chi = _walk_setup(euclid3)
    with pytest.raises(InvalidArgumentError, match="record must be callable or None"):
        advance_states(op, chi, [0.01], controls, record=record)


def test_a_streamed_replay_has_the_listed_replays_bits(euclid3, monkeypatch):
    # a replay needs no pair before it takes it, so pairs that stream in
    # from a generator end each stop on a listed replay's bits; the stops
    # are several, and each ends on a step clipped onto it, off the lattice
    controls, g, op, chi = _walk_setup(euclid3)
    stops = [0.004, 0.01, 0.02]
    steps = []
    advance_states(op, chi, stops, controls, record=_keeping(steps))
    listed = _replay(op, chi, steps, len(stops))
    ends = [h for (k, h), (j, _) in zip(steps, [*steps[1:], (len(stops), 0.0)]) if j > k]
    assert len(ends) == 3 and all(heatlab.solver._lattice_step(h) < h for h in ends)
    taken = []

    def streamed():
        for pair in steps:
            taken.append(pair)
            yield pair

    assert [a.tobytes() for a in _replay(op, chi, streamed(), len(stops))] == [
        b.tobytes() for b in listed]
    assert taken == steps

    # the walk's third level replays level 1's steps as they stream in, and
    # must equal a listed replay
    monkeypatch.setattr(heatlab.solver, "can_fork", lambda: False)
    datum, radii = ball_indicator(1.0), (2.0, 3.0, 4.0)
    ladder_grid, indices = heatlab.exhaustion_ladder(euclid3, datum, stops[-1], controls, radii)
    u0 = project_datum(datum, ladder_grid)

    def op_at(idx):
        return assemble(heatlab.subgrid(ladder_grid, idx), euclid3, DIRICHLET)

    steps = []
    advance_states(op_at(indices[0]), u0[:indices[0]], stops, controls, record=_keeping(steps))
    *_, (g3, third) = exhaustion_levels(euclid3, datum, stops, controls, radii)
    assert g3.N == indices[2]
    assert [a.tobytes() for a in third] == [
        b.tobytes() for b in _replay(op_at(indices[2]), u0[:indices[2]], steps, len(stops))]


def test_controls_validation():
    with pytest.raises(InvalidArgumentError):
        SolveControls(step_tol=0.0)
    with pytest.raises(InvalidArgumentError):
        exhaustion_levels(euclidean(3), ball_indicator(1.0), [0.01],
                          SolveControls(), radii=(3.0, 2.0))
    c = replace(SolveControls(n_cells=64), step_tol=1e-4)
    assert c.n_cells == 64 and c.step_tol == 1e-4
    # a whole-number float cell count is stored as the int it names
    assert type(SolveControls(n_cells=64.0).n_cells) is int
    for bad in (128.5, math.nan, math.inf, 15):
        with pytest.raises(InvalidArgumentError):
            SolveControls(n_cells=bad)


def test_overflow_safe_radius_values(euclid3, pe4):
    assert overflow_safe_radius(euclid3) == math.inf
    safe = overflow_safe_radius(pe4)
    # log(4 pi) + 2 log r + r^4 = 700 has its root near 5.133; frozen from an
    # independent bisection of that scalar equation
    assert abs(safe - 5.132994235891326) < 1e-6, f"safe radius moved to {safe}"
    build_grid(pe4, safe, 64)
    with pytest.raises(RangeError):
        build_grid(pe4, safe * 1.01, 64)


def _bisected_safe_radius(manifold) -> float:
    # overflow_safe_radius as it was: the bisection always ran 200 steps
    def fits(r):
        return manifold.log_sphere_constant + manifold.log_area(r) <= LOG_MAX_GRID

    if fits(1e6):
        return math.inf
    lo, hi = 0.0, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("manifold", [euclidean(3), power_exp_weight(4, 1, 3),
                                      power_exp_weight(3, 1, 3)], ids=repr)
def test_safe_radius_bisection_stops_when_the_bracket_closes(manifold, monkeypatch):
    # after about 70 halvings lo and hi are adjacent floats and nothing moves
    full = _bisected_safe_radius(manifold)
    calls = [0]
    log_area = manifold.log_area

    def counting(r):
        calls[0] += 1
        return log_area(r)

    monkeypatch.setattr(manifold, "log_area", counting)
    assert overflow_safe_radius(manifold) == full
    assert calls[0] <= 80


def test_exhaustion_probes_grow_with_radius(euclid3, monkeypatch):
    levels = record_walk(monkeypatch)
    controls = SolveControls(n_cells=96, step_tol=1e-5)
    rep = degiorgi_sweep(euclid3, ball_indicator(1.0), [0.05], controls,
                         radii=(2.0, 3.0, 4.0))
    masses = [weighted_sum(g, values) for g, (values,) in levels]
    assert all(b >= a for a, b in zip(masses, masses[1:])), f"masses not monotone: {masses}"
    row = check_row(rep.evidence["checks"], "unconverged_exhaustion_stops", "both")
    assert row["measured"] == 0.0
    assert levels[-1][0].R == 4.0
    # a larger absorbing ball keeps more of the unit of mass
    assert masses[-1] < 4 * math.pi / 3 and masses[-1] > 0.99 * 4 * math.pi / 3


def test_exhaustion_walk_through_stops(euclid3, monkeypatch):
    # one walk per level through every stop; each stop gets the levels its
    # own one-time exhaustion would give, to step accuracy
    levels = record_walk(monkeypatch)
    controls, radii = SolveControls(n_cells=96, step_tol=1e-5), (2.0, 3.0)
    stops = [0.01, 0.02, 0.04]
    rep = degiorgi_sweep(euclid3, ball_indicator(1.0), stops[::-1], controls,
                         radii=radii)
    walk, unconverged = list(levels), 0
    for k, t in enumerate(stops):
        levels.clear()
        alone = degiorgi_sweep(euclid3, ball_indicator(1.0), [t], controls,
                               radii=radii)
        assert [g.R for g, _ in walk] == [g.R for g, _ in levels]
        for (g, states), (_, (values,)) in zip(walk, levels):
            want = total_variation(values, g, euclid3)
            assert abs(total_variation(states[k], g, euclid3) - want) < 1e-4 * want
            # the first stop walks the one-time ladder exactly
            assert k > 0 or np.array_equal(states[0], values)
        unconverged += check_row(alone.evidence["checks"],
                                 "unconverged_exhaustion_stops", "both")["measured"]
    # each stop converges in the shared walk as it does alone
    row = check_row(rep.evidence["checks"], "unconverged_exhaustion_stops", "both")
    assert row["measured"] == unconverged


@pytest.mark.parametrize("k", [0, 1, 2])
def test_exhaustion_monotonicity_is_checked_at_every_stop(euclid3, monkeypatch, k):
    # dent the outer level below the inner one at stop k only
    stops = [0.01, 0.02, 0.04]
    replay = heatlab.solver._replay

    def denting(*args):  # the second level, replayed from the first's steps
        states = replay(*args)
        states[k] = states[k] - 1e-6
        return states

    controls, radii = SolveControls(n_cells=96, step_tol=1e-5), (2.0, 3.0)
    list(exhaustion_levels(euclid3, ball_indicator(1.0), stops, controls, radii))
    monkeypatch.setattr(heatlab.solver, "_replay", denting)
    with pytest.raises(NumericalFailure, match=f"at t={stops[k]}"):
        list(exhaustion_levels(euclid3, ball_indicator(1.0), stops, controls,
                               radii))


def test_exhaustion_walk_checks_each_level_against_the_last(euclid3,
                                                          monkeypatch):
    # consumed directly, as validate does: a dent in the second level stops
    # the walk before that level is yielded
    advance, replay = heatlab.solver.advance_states, heatlab.solver._replay
    levels = []

    def recording(*args, **kwargs):
        levels.append(advance(*args, **kwargs))
        return levels[-1]

    def denting(*args):
        levels.append([state - 1e-6 for state in replay(*args)])
        return levels[-1]

    monkeypatch.setattr(heatlab.solver, "advance_states", recording)
    monkeypatch.setattr(heatlab.solver, "_replay", denting)
    controls = SolveControls(n_cells=64, step_tol=1e-5)
    walk = exhaustion_levels(euclid3, ball_indicator(1.0), [0.05], controls,
                             radii=(2.0, 3.0))
    g, _ = next(walk)
    assert g.R == 2.0
    with pytest.raises(NumericalFailure, match="exhaustion monotonicity "
                       "violated by .* between R=2 and R=3 at t=0.05"):
        next(walk)
    assert len(levels) == 2


def test_a_walk_keeps_and_sends_no_step_it_will_not_replay(euclid3, monkeypatch):
    # level 1 records its steps only for a later level: a one-level walk
    # passes no record, and a two-level walk keeps its steps for level 2
    # but sends nothing beside it (every pair once went into a list that
    # nothing read).  From three levels on, level 1's steps go to level 3,
    # and one () per later odd level lets it start
    records, accepted, sent = [], [], []
    advance, beside = heatlab.solver.advance_states, heatlab.solver._beside

    def recording(*args, record=None, **kwargs):
        records.append(record)
        seen = None if record is None else \
            lambda pair, *states: (accepted.append(pair), record(pair, *states))
        return advance(*args, record=seen, **kwargs)

    @contextlib.contextmanager
    def counting(work, fork):
        with beside(work, fork) as (send, receive):
            yield (lambda item: (sent.append(item), send(item))), receive

    monkeypatch.setattr(heatlab.solver, "advance_states", recording)
    monkeypatch.setattr(heatlab.solver, "_beside", counting)
    controls = SolveControls(n_cells=64, step_tol=1e-5)
    for n in range(1, 6):
        for kept in (records, accepted, sent):
            kept.clear()
        walk = exhaustion_levels(euclid3, ball_indicator(1.0), [0.02, 0.05], controls,
                                 radii=(2.0, 3.0, 4.0, 5.0, 6.0)[:n])
        assert len(list(walk)) == n
        assert len(records) == 1 and (records[0] is None) == (n == 1)
        assert (len(accepted) > 0) == (n > 1)
        assert [item for item in sent if item != ()] == (accepted if n > 2 else [])
        assert sent.count(()) == (n - 1) // 2


def test_a_walk_steps_a_tuple_of_data_as_stacked_columns(euclid3, monkeypatch):
    # two balls and the annulus between them, which shares both their jump
    # radii, step as three columns in order on one ladder holding each jump
    # once: the annulus column is the balls' difference on every level, at
    # every stop, with the same bits forked and inline.  The first radius
    # must contain every datum
    data = (ball_indicator(1.0), ball_indicator(1.5),
            piecewise([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (1.5, 1.0), (1.5, 0.0)]))
    walk = dict(stops=[0.01, 0.05], controls=SolveControls(n_cells=64, step_tol=1e-5),
                radii=(2.0, 3.0, 4.0))
    forked = list(exhaustion_levels(euclid3, data, **walk))
    monkeypatch.setattr(heatlab.solver, "can_fork", lambda: False)
    inline = list(exhaustion_levels(euclid3, data, **walk))
    assert [g.R for g, _ in forked] == [2.0, 3.0, 4.0]
    for (g, states), (_, want) in zip(forked, inline, strict=True):
        assert {1.0, 1.5} <= set(g.faces.tolist())
        for got, expected in zip(states, want, strict=True):
            assert got.shape == (g.N, 3) and got.tobytes() == expected.tobytes()
            assert np.max(np.abs(got[:, 2] - (got[:, 1] - got[:, 0]))) < 1e-12
    with pytest.raises(InvalidArgumentError, match="does not contain the datum "
                       "whose last breakpoint is at 2.5"):
        exhaustion_levels(euclid3, (ball_indicator(1.0), ball_indicator(2.5)), **walk)


def test_single_level_builds_one_grid(euclid3, monkeypatch):
    # the ladder's faces are laid out first and measured once
    built = []

    def counting(*args, **kwargs):
        built.append(args[1].size)
        return grid_from_faces(*args, **kwargs)

    monkeypatch.setattr(heatlab.grid, "grid_from_faces", counting)
    monkeypatch.setattr(heatlab.solver, "grid_from_faces", counting)
    controls = SolveControls(n_cells=96, step_tol=1e-5)
    (g, _), = exhaustion_levels(euclid3, ball_indicator(1.0), [0.05], controls,
                                radii=(3.0,))
    assert built == [97]
    assert g.N == 96


@pytest.mark.parametrize("points, radius", [
    # the radius contains the jump at 1 but cuts the ramp down to 2; the
    # cut datum's variation limit would read 17.98 against an exact 20.94
    ([(0.0, 1.0), (1.0, 1.0), (1.0, 0.5), (2.0, 0.0)], 1.5),
    # the hat 0 -> 1 -> 0 on [0.5, 1.5] has no jump for a check to find
    ([(0.0, 0.0), (0.5, 0.0), (1.0, 1.0), (1.5, 0.0)], 1.2),
])
def test_first_truncation_radius_must_contain_the_datum(euclid3, points,
                                                        radius):
    controls = SolveControls(n_cells=64, step_tol=1e-5)
    with pytest.raises(InvalidArgumentError,
                       match="does not contain the datum"):
        next(exhaustion_levels(euclid3, piecewise(points), [0.01], controls,
                               radii=(radius,)))


def test_exhaustion_levels_rejects_bad_time(euclid3):
    controls, radii = SolveControls(n_cells=64, step_tol=1e-5), (2.0,)
    # True == 1, but a boolean is no time
    for t in ([0.0], [-0.01], [math.nan], [math.inf], [True], [], [0.0, 0.01],
              [0.01, math.inf], [True, 2.0]):
        with pytest.raises(InvalidArgumentError, match="stop times must hold "
                           "1 or more positive finite numbers"):
            next(exhaustion_levels(euclid3, ball_indicator(1.0), t, controls,
                                   radii))
    with pytest.raises(InvalidArgumentError, match="strictly increasing"):
        next(exhaustion_levels(euclid3, ball_indicator(1.0), [0.02, 0.01],
                               controls, radii))


def test_exhaustion_levels_checks_its_arguments_at_the_call(euclid3, pe4):
    # a walk nobody iterates yet must still refuse what it cannot walk
    controls = SolveControls(n_cells=64, step_tol=1e-5)
    with pytest.raises(InvalidArgumentError, match="stop times must hold "
                       "1 or more positive finite numbers"):
        exhaustion_levels(euclid3, ball_indicator(1.0), [0.0], controls, (2.0,))
    with pytest.raises(InvalidArgumentError,
                       match="does not contain the datum"):
        exhaustion_levels(euclid3, ball_indicator(2.5), [0.01], controls, (2.0,))
    with pytest.raises(RangeError, match="overflow-safe radius"):
        exhaustion_levels(pe4, ball_indicator(1.0), [0.01], controls, (6.0,))


def test_semigroup_composition(euclid3):
    # one-shot against staged evolution on one grid and operator: the gap
    # is pure time-discretization drift
    controls = SolveControls(n_cells=256, step_tol=1e-6)
    g = build_grid(euclid3, 3.0, controls.n_cells, jump_radii=(1.0,))
    op = assemble(g, euclid3, DIRICHLET)
    u0 = project_datum(ball_indicator(1.0), g)
    (direct,) = advance_states(op, u0, [0.05], controls)
    (staged,) = advance_states(op, advance_states(op, u0, [0.03], controls)[0],
                               [0.02], controls)
    drift = weighted_sum(g, np.abs(direct - staged)) / weighted_sum(g, np.abs(direct))
    assert 0.0 < drift < 1e-4, f"one-shot vs composed evolution differ by {drift:.3e}"


@pytest.mark.parametrize("columns", [None, 2, 3])
@pytest.mark.parametrize("family", ["euclid3", "pe4"])
def test_step_is_the_banded_solve_bitwise(request, family, columns):
    # the LDL^T solve of D (I - dt L) x = D u agrees with scipy's general
    # banded solve of (I - dt L) x = u, with L built column by column from
    # apply, to roundoff that grows with dt; a stacked step is the step of
    # each column bit for bit, and leaves its input as it was
    m = request.getfixturevalue(family)
    g = build_grid(m, 4.0, 256, jump_radii=(1.0,))
    op = assemble(g, m, DIRICHLET)
    L = op.apply(np.eye(g.N))
    shape = g.N if columns is None else (g.N, columns)
    u = np.random.default_rng(5).uniform(0.0, 1.0, shape)
    before = u.copy()
    for dt, bound in ((1e-3, 1e-14), (1.0, 1e-12)):
        A = np.eye(g.N) - dt * L
        ab = np.zeros((3, g.N))  # scipy's layout: super-, main and sub-diagonal
        ab[0, 1:], ab[1], ab[2, :-1] = np.diag(A, 1), np.diag(A), np.diag(A, -1)
        want = solve_banded((1, 1), ab, u)
        got = implicit_step(op, dt, u)
        assert got.shape == u.shape
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))
        for k in range(0 if columns is None else columns):
            column = implicit_step(op, dt, np.ascontiguousarray(u[:, k]))
            assert np.array_equal(got[:, k], column)
    assert np.array_equal(u, before), "the step overwrote its input state"


def _stacked(g, chi, columns):
    # chi alone (columns None) or beside columns - 1 random ones
    if columns is None:
        return chi.copy()
    extra = np.random.default_rng(11).uniform(0.0, 1.0, (g.N, columns - 1))
    return np.column_stack([chi, extra])


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("columns", [None, 1, 2, 3])
def test_advance_states_leaves_the_callers_states_as_they_were(euclid3, order,
                                                                columns):
    # the step runs in buffers of its own: the caller's array is copied
    # once and never written, whatever its memory order
    controls, g, op, chi = _walk_setup(euclid3)
    states = np.array(_stacked(g, chi, columns), order=order)
    before = states.copy()
    advance_states(op, states, [0.004, 0.01], controls)
    assert np.array_equal(states, before), "the step overwrote the caller's states"


def test_states_at_the_stops_are_distinct_arrays_that_stay_put(euclid3):
    # each stop keeps a copy of the last state the step hook saw before it:
    # no stop shares memory with another, with the input, or with the next call
    controls, g, op, chi = _walk_setup(euclid3)
    u0 = _stacked(g, chi, 2)
    stops = [0.004, 0.01, 0.02]
    seen = {}

    def record(pair, u, mid, fine):
        seen[pair[0]] = fine.copy()

    states = advance_states(op, u0, stops, controls, record=record)
    assert sorted(seen) == [0, 1, 2]
    for (stop, state), at_stop in zip(zip(stops, states), seen.values()):
        assert np.array_equal(state, at_stop), f"the state at {stop} moved later"
    arrays = [u0, *states]
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(arrays) for b in arrays[i + 1:])
    kept = [s.copy() for s in states]
    advance_states(op, u0, stops, controls)
    assert all(np.array_equal(s, k) for s, k in zip(states, kept)), \
        "a later call changed the states an earlier one returned"


@pytest.mark.parametrize("columns", [1, 2, 3])
def test_c_and_fortran_ordered_states_step_bitwise_alike(euclid3, columns):
    # the Fortran-ordered input runs first, so a step that wrote into it
    # would hand the C-ordered run another start; one column also steps
    # bitwise like the same state as a vector
    controls, g, op, chi = _walk_setup(euclid3)
    fortran = np.asfortranarray(_stacked(g, chi, columns))
    stops = [0.004, 0.01]
    by_f = advance_states(op, fortran, stops, controls)
    by_c = advance_states(op, np.ascontiguousarray(fortran), stops, controls)
    assert all(np.array_equal(f, c) for f, c in zip(by_f, by_c))
    if columns == 1:
        by_vector = advance_states(op, chi, stops, controls)
        assert all(np.array_equal(f[:, 0], v) for f, v in zip(by_f, by_vector))


@pytest.mark.parametrize("manifold", [euclidean(3), power_exp_weight(4, 1, 3)],
                         ids=["completeness_euclidean", "completeness_superexp"])
def test_a_replay_holds_one_factorization_at_a_time(manifold, monkeypatch):
    # the two completeness samples' walks: whenever a replayed level factors
    # a half-step size, the factorization it made is the only one alive (a
    # replay once held all 52-54 sizes)
    live, held, replaying = [0], [], [False]
    factor, replay = heatlab.solver._factor, heatlab.solver._replay

    def freed():
        live[0] -= 1

    def counted(op, dt):
        d, e = factor(op, dt)
        live[0] += 1
        weakref.finalize(d, freed)
        if replaying[0]:
            held.append(live[0])
        return d, e

    def replayed(*args):
        replaying[0] = True
        try:
            return replay(*args)
        finally:
            replaying[0] = False

    monkeypatch.setattr(heatlab.solver, "_factor", counted)
    monkeypatch.setattr(heatlab.solver, "_replay", replayed)
    # every level in this process, where the patches see it
    monkeypatch.setattr(heatlab.solver, "can_fork", lambda: False)
    completeness_probe(manifold, 0.1, SolveControls(n_cells=1024, step_tol=1e-6))
    assert len(held) >= 3 * 40 and set(held) == {1}, held


@pytest.mark.parametrize("columns", [None, 1, 2, 3])
def test_solve_into_a_buffer_is_the_allocating_solve(euclid3, columns):
    # the step into a buffer writes into the Fortran-ordered out, returns
    # it, and agrees bit for bit with the step into a fresh array
    controls, g, op, chi = _walk_setup(euclid3)
    u = _stacked(g, chi, columns)
    out = np.empty_like(u, order="F")
    assert implicit_step(op, 1e-3, u, out) is out
    assert np.array_equal(out, implicit_step(op, 1e-3, u))


def test_an_attempt_allocates_no_array(euclid3, monkeypatch):
    # between two accepted steps that factor no new size, the traced peak
    # rises by a few Python objects, far below one state array, in the
    # recording loop and in the replay; and a run over ten times the steps
    # raises the call's peak by no more than the factor cache's growth (and
    # 64 bytes a step) where ``record`` keeps nothing
    controls = SolveControls(n_cells=2048, step_tol=1e-5)
    g = build_grid(euclid3, 3.0, controls.n_cells, jump_radii=(1.0,))
    op = assemble(g, euclid3, DIRICHLET)
    chi = project_datum(ball_indicator(1.0), g)
    u0 = np.column_stack([chi, 1.0 - chi])
    cached = []  # bytes each factor keeps, views counted by their base
    factor = heatlab.solver._factor

    def recording(*args):
        d, e = factor(*args)
        cached.append(sum((x if x.base is None else x.base).nbytes for x in (d, e)))
        return d, e

    monkeypatch.setattr(heatlab.solver, "_factor", recording)
    rises, last = [], {}

    def watch(*_):  # between two steps, the loop's own allocations
        _, peak = tracemalloc.get_traced_memory()
        if last and len(cached) == last["factors"]:
            rises.append(peak - last["current"])
        last["factors"] = len(cached)
        tracemalloc.reset_peak()
        last["current"] = tracemalloc.get_traced_memory()[0]

    def watched(pairs):  # the replay's pairs, watched as each is taken
        for pair in pairs:
            watch()
            yield pair

    peaks, caches, steps, pairs = [], [], [], []
    tracemalloc.start()
    try:
        for stop in (1e-4, 0.3):
            cached.clear()
            count = itertools.count()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            advance_states(op, u0, [stop], controls, record=lambda *_: next(count))
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            caches.append(sum(cached))
            steps.append(next(count))
        cached.clear()
        advance_states(op, u0, [0.3], controls,
                       record=lambda pair, *_: (pairs.append(pair), watch()))
        recorded = len(rises)
        last.clear()
        _replay(op, u0, watched(pairs), 1)
    finally:
        tracemalloc.stop()
    # every step is watched but the first and those that factor a new size
    assert steps[1] >= 10 * steps[0] and recorded >= steps[1] - 1 - len(cached)
    assert len(rises) - recorded > steps[1] // 2
    assert max(rises) <= u0.nbytes / 16, max(rises)
    more = steps[1] - steps[0]
    assert peaks[1] - peaks[0] <= caches[1] - caches[0] + 64 * more, (peaks, caches, more)


def test_a_nan_column_is_not_outvoted_by_a_finite_one(euclid3, monkeypatch):
    # a NaN error in any column rejects the attempt, so the run ends in
    # NumericalFailure instead of returning a NaN column beside a good one
    # (a NaN in the initial state is refused at the call, so the solve
    # plants it in the second column)
    controls, g, op, chi = _walk_setup(euclid3)
    monkeypatch.setattr(heatlab.solver, "MAX_STEPS", 200)
    solve = heatlab.solver.dpttrs

    def poisoned(d, e, b, overwrite_b):
        x, info = solve(d, e, b, overwrite_b)
        x[0, 1] = math.nan
        return x, info

    monkeypatch.setattr(heatlab.solver, "dpttrs", poisoned)
    with pytest.raises(NumericalFailure, match="unreachable"):
        advance_states(op, _stacked(g, chi, 2), [0.01], controls)


def test_a_step_past_double_range_is_a_range_error_naming_dt(euclid3):
    # the band of D (I - dt L) once overflowed with a RuntimeWarning, an
    # error under the suite's filter, and reached dpttrf as inf
    g = build_grid(euclid3, 1.0, 16)
    op = assemble(g, euclid3, DIRICHLET)
    with pytest.raises(RangeError, match=r"band of D \(I - dt L\) overflows at dt="):
        advance_states(op, np.ones(16), [1e306], SolveControls(n_cells=16))
    with pytest.raises(RangeError, match="at dt=1e[+]308"):
        op.banded(1e308)


def test_singular_step_names_dt(euclid3):
    # an operator without weights or conductances has a zero diagonal
    g = build_grid(euclid3, 3.0, 64)
    op = assemble(g, euclid3, DIRICHLET)
    dt = 2.0 ** -10
    singular = replace(op, cell_weights=0.0 * op.cell_weights,
                       conductance=0.0 * op.conductance)
    with pytest.raises(NumericalFailure, match=f"dt={dt}: dpttrf"):
        heatlab.solver._factor(singular, dt)


def _mean_exit_time(p: float, R: float) -> float:
    """The integral of V/A over [0, R] for A(r) = r^2 exp(r^p), by nested
    quadrature; V(s)/A(s) integrates (r/s)^2 exp(r^p - s^p), which stays
    in double range."""
    def v_over_a(s):
        return quad(lambda r: (r / s) ** 2 * math.exp(r ** p - s ** p), 0.0, s,
                    epsabs=0.0, epsrel=1e-13, limit=400)[0] if s > 0 else 0.0
    return quad(v_over_a, 0.0, R, epsabs=0.0, epsrel=1e-12, limit=400)[0]


@pytest.mark.parametrize("p, R", [(None, 2.0), (2, 8.0), (3, 8.5), (4, 5.0)],
                         ids=["flat", "p2", "p3", "p4"])
def test_exit_time_is_the_integral_of_volume_over_area(p, R):
    # E[tau_R](0) = int_0^R V/A (Grigor'yan): R^2/6 on flat R^3, nested
    # quadrature on exp(+r^p); the sum misses it by second order in the
    # spacing, and matches one LAPACK solve of D(-L) w = D 1 at every cell
    manifold = euclidean(3) if p is None else power_exp_weight(p, 1, 3)
    exact = R * R / 6.0 if p is None else _mean_exit_time(p, R)
    errors = []
    for n in (512, 1024):
        op = assemble(build_grid(manifold, R, n), manifold, DIRICHLET)
        w = heatlab.solver.exit_time(op)
        solved = minus_laplacian_solve(op, np.ones(n))
        assert np.all(np.abs(w - solved) <= 1e-12 * np.abs(solved)), (
            f"N={n}: off the solve by {np.max(np.abs(w / solved - 1)):.2e}")
        errors.append(abs(w[0] - exact) / exact)
    assert errors[1] <= 1e-5, f"pole value off the integral by {errors[1]:.2e}"
    if p is None:  # on flat R^3 the sum is exact
        assert errors[1] <= 1e-15
    else:
        assert 3.9 <= errors[0] / errors[1] <= 4.1, errors


def test_exit_time_needs_a_dirichlet_wall(euclid3):
    # a Neumann wall conducts nothing, and nothing exits: the call raises
    # before any division by its zero conductance
    op = assemble(build_grid(euclid3, 2.0, 64), euclid3, NEUMANN)
    with pytest.raises(InvalidArgumentError, match="Dirichlet"):
        heatlab.solver.exit_time(op)


def test_implicit_euler_sums_telescope_to_the_exit_time(pe4):
    # each half step (I - h L) b = a gives h b = (-L)^{-1} (a - b), so the
    # steps' sum of h b from ones is w_h - (-L)^{-1} u(t), at most w_h: the
    # time integral of P_t 1 that the comparison certificate caps
    g = build_grid(pe4, 3.0, 512)
    op = assemble(g, pe4, DIRICHLET)
    v = np.zeros(g.N)

    def integrate(pair, u, mid, fine):
        v[:] += 0.5 * pair[1] * mid
        v[:] += 0.5 * pair[1] * fine

    (u,) = advance_states(op, np.ones(g.N), [0.5], SolveControls(n_cells=512),
                          record=integrate)
    w = heatlab.solver.exit_time(op)
    rest = w - minus_laplacian_solve(op, u)
    assert np.all(np.abs(v - rest) <= 1e-12 * np.abs(rest))
    assert np.all(v <= w * (1.0 + 1e-12))
