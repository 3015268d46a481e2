"""Experiment drivers: verdicts, evidence structure, and control behavior."""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from heatlab import (
    InvalidArgumentError,
    NumericalFailure,
    RangeError,
    SolveControls,
    ball_indicator,
    piecewise,
    total_variation,
)
import heatlab.experiments
import heatlab.functionals
import heatlab.solver
from conftest import ball_heat_tv, check_row, moved_outputs, record_walk
from heatlab.cli import run
from heatlab.experiments import (
    EXHAUSTION_RTOL,
    VERDICTS,
    blowup_sweep,
    check,
    comparison_check,
    completeness_probe,
    decide,
    degiorgi_sweep,
    tail_probe,
)
from heatlab.solver import exhaustion_radii, overflow_safe_radius

ROOT = Path(__file__).resolve().parents[1]


def check_report_shape(rep, experiment):
    assert all(name.startswith(experiment) for name in rep.series)
    assert rep.verdict in VERDICTS, f"verdict {rep.verdict!r} not in {VERDICTS}"
    assert rep.finding


def test_degiorgi_flat_space_limit(euclid3):
    controls = SolveControls(n_cells=256, step_tol=1e-6, exhaustion=(3.0,))
    rep = degiorgi_sweep(euclid3, ball_indicator(1.0), (0.02, 0.01, 0.005), controls)
    check_report_shape(rep, "degiorgi")
    assert rep.verdict == "confirms", rep.finding
    assert rep.fitted["relative_gap"] < 1e-3
    assert abs(rep.fitted["exact_tv"] - 4 * math.pi) < 1e-12
    rows = rep.series["degiorgi"]
    assert len(rows) == 3
    tvs = [row["TV"] for row in rows]
    assert all(b > a for a, b in zip(tvs, tvs[1:])), "variation must grow as t shrinks"


def test_degiorgi_flags_preasymptotic_ladder(euclid3):
    # far from the limit the corrections stay large; the driver must not
    # manufacture confidence out of three bad points
    controls = SolveControls(n_cells=128, step_tol=1e-5, exhaustion=(4.0,))
    rep = degiorgi_sweep(euclid3, ball_indicator(1.0), (0.4, 0.2, 0.1), controls)
    assert rep.verdict == "inconclusive"
    row = check_row(rep.evidence["checks"], "extrapolation_low_confidence",
                    "both")
    assert (row["measured"], row["status"]) == (1.0, "fail")


FINDINGS = ("held", "failed", "open")


@pytest.mark.parametrize("rows, verdict", [
    ([], "confirms"),
    ([check("c", 1, "<", 0)], "refutes"),
    ([check("c", 1, "<", 0), check("r", 1, ">", 0, "refutes")], "refutes"),
    ([check("c", 1, "<", 0), check("r", 0, ">", 0, "refutes")], "inconclusive"),
    # a failing "both" row blocks either verdict, whatever the others say
    ([check("b", 1, "<=", 0, "both"), check("c", 0, "<=", 1)], "inconclusive"),
    ([check("b", 1, "<=", 0, "both"), check("c", 1, "<=", 0),
      check("r", 0, "<=", 1, "refutes")], "inconclusive"),
    ([check("b", 0, ">=", 0, "both"), check("c", 1, "<=", 0)], "refutes"),
])
def test_decide_reads_only_statuses_and_gates(rows, verdict):
    assert decide(rows, FINDINGS) == (verdict, FINDINGS[VERDICTS.index(verdict)])


@pytest.mark.parametrize("measured, relation, bound, status", [
    (1.0, "<=", 1.0, "pass"), (1.0, "<", 1.0, "fail"),
    (1.0, ">=", 1.0, "pass"), (1.0, ">", 1.0, "fail"),
    (math.nan, "<=", 1.0, "fail"), (math.nan, ">", 1.0, "fail"),
])
def test_check_row_states_its_comparison(measured, relation, bound, status):
    row = check("p", measured, relation, bound, "both")
    assert row["status"] == status
    assert (row["property"], row["relation"], row["tolerance"], row["gate"]) \
        == ("p", relation, bound, "both")
    assert row["measured"] == measured or math.isnan(measured)


def test_degiorgi_needs_decreasing_times(euclid3, fast_controls):
    with pytest.raises(InvalidArgumentError):
        degiorgi_sweep(euclid3, ball_indicator(1.0), (0.01, 0.02), fast_controls)
    # two points cannot be extrapolated; the driver reports, never guesses
    rep = degiorgi_sweep(euclid3, ball_indicator(1.0), (0.02, 0.01), fast_controls)
    assert rep.verdict == "inconclusive"


def test_degiorgi_with_two_times_reports_no_limit(euclid3):
    # the guard row stops the fit: no stand-in limit, and no gap row that
    # could pass on the raw variation of the last time
    controls = SolveControls(n_cells=128, step_tol=1e-5, exhaustion=(3.0,))
    rep = degiorgi_sweep(euclid3, ball_indicator(1.0), [0.01, 0.005], controls)
    assert (rep.verdict, rep.finding) == ("inconclusive", "fewer than 3 times")
    checks = rep.evidence["checks"]
    assert checks[0] == check("extrapolation_points", 2, ">=", 3, "both")
    assert [row["property"] for row in checks] == [
        "extrapolation_points", "unconverged_exhaustion_stops"]
    for key in ("extrapolated_limit", "relative_gap", "error_indicator"):
        assert math.isnan(rep.fitted[key]), key
    assert rep.fitted["exact_tv"] == pytest.approx(4 * math.pi, rel=1e-12)


DEGIORGI_TIMES = (0.02, 0.01, 0.005, 0.0025)


@pytest.mark.parametrize("n_cells", [1024, 256])
def test_degiorgi_rows_match_the_closed_form(euclid3, n_cells):
    # every row against the flat-space variation at its own t, computed by
    # quadrature of the erf closed form (no solver code involved)
    controls = SolveControls(n_cells=n_cells, step_tol=1e-6, exhaustion=(4.0,))
    rep = degiorgi_sweep(euclid3, ball_indicator(1.0), DEGIORGI_TIMES, controls)
    rows = rep.series["degiorgi"]
    assert [row["t"] for row in rows] == list(DEGIORGI_TIMES)
    for row in rows:
        ref = ball_heat_tv(row["t"])
        gap = abs(row["TV"] - ref) / ref
        assert gap < 1e-6, f"TV at t={row['t']} off the closed form by {gap:.3e}"


def test_degiorgi_sweep_walks_once_per_resolution(euclid3, monkeypatch):
    # exactly one exhaustion walk through every t, on the base grid; the
    # smallest t is its first stop, so its row is the one a sweep over that
    # t alone gives, bit for bit
    controls = SolveControls(n_cells=128, step_tol=1e-5, exhaustion=(3.0,))
    calls = _count_trajectories(monkeypatch, heatlab.solver)
    rep = degiorgi_sweep(euclid3, ball_indicator(1.0), (0.02, 0.01, 0.005),
                         controls)
    assert calls == [[0.005, 0.01, 0.02]]
    assert {row["N"] for row in rep.series["degiorgi"]} == {128}
    alone = degiorgi_sweep(euclid3, ball_indicator(1.0), (0.005,), controls)
    assert rep.series["degiorgi"][-1] == alone.series["degiorgi"][0]


def test_annulus_config_refutes_a_signed_variation(tmp_path, monkeypatch):
    # a ball's evolved profile is radially non-increasing, so a variation
    # that drops the absolute value still meets its perimeter.  The annulus
    # 1_{1<r<1.5} rises and falls: the signed sum tends to
    # 4 pi (1.5^2 - 1) = 5 pi, the true variation to 4 pi (1.5^2 + 1) = 13 pi
    config = str(ROOT / "configs" / "degiorgi_annulus.json")

    def report(out):
        assert run(config, str(out)) == 0
        return json.loads((out / "report.json").read_text())

    honest = report(tmp_path / "honest")
    assert not moved_outputs("degiorgi_annulus", tmp_path / "honest")
    assert honest["verdict"] == "confirms", honest["finding"]
    assert abs(honest["fitted"]["exact_tv"] - 13 * math.pi) < 1e-9
    assert {row["N"] for row in honest["series"]["degiorgi"]} == {1024}

    def signed_variation(u, g, m):
        log_sa = m.log_sphere_constant + g.log_face_area[1:-1]
        return math.fsum(np.exp(log_sa) * -np.diff(u))

    monkeypatch.setattr(heatlab.functionals, "total_variation",
                        signed_variation)
    signed = report(tmp_path / "signed")
    assert signed["verdict"] == "refutes", signed["finding"]
    assert abs(signed["fitted"]["extrapolated_limit"] - 5 * math.pi) < 1e-2


def test_degiorgi_sweep_through_two_levels(euclid3):
    # with two explicit levels the replayed walk agrees with the per-t
    # exhaustion to step accuracy
    controls = SolveControls(n_cells=128, step_tol=1e-5, exhaustion=(3.0, 4.0))
    rep = degiorgi_sweep(euclid3, ball_indicator(1.0), (0.02, 0.01, 0.005),
                         controls)
    row = check_row(rep.evidence["checks"], "unconverged_exhaustion_stops",
                    "both")
    assert (row["measured"], row["status"]) == (0.0, "pass")
    for row in rep.series["degiorgi"]:
        *_, (g, (values,)) = heatlab.solver.exhaustion_levels(
            euclid3, ball_indicator(1.0), [row["t"]], controls)
        assert row["R_used"] == g.R
        want = total_variation(values, g, euclid3)
        assert abs(row["TV"] - want) < 1e-4 * want, f"t={row['t']}"


def test_automatic_exhaustion_waits_for_every_stop(euclid3, monkeypatch):
    # the policy sizes its radii for the largest stop, and degiorgi keeps
    # walking until every stop has converged
    levels = record_walk(monkeypatch)
    controls = SolveControls(n_cells=64, step_tol=1e-5)
    rep = degiorgi_sweep(euclid3, ball_indicator(1.0), [0.09, 0.01], controls)
    row = check_row(rep.evidence["checks"], "unconverged_exhaustion_stops",
                    "both")
    assert (row["measured"], row["status"]) == (0.0, "pass")
    radii = [g.R for g, _ in levels]
    assert {row["R_used"] for row in rep.series["degiorgi"]} == {radii[-1]}
    step = 4.0 * math.sqrt(0.09)
    assert radii[0] == pytest.approx(1.0 + step, rel=1e-2)
    # t = 0.01 had settled on the second level, t = 0.09 needed a third
    rtol = EXHAUSTION_RTOL
    tv = [total_variation(states[0], g, euclid3) for g, states in levels]
    assert abs(tv[1] - tv[0]) <= rtol * tv[1]
    tv = [total_variation(states[1], g, euclid3) for g, states in levels]
    assert abs(tv[1] - tv[0]) > rtol * tv[1]
    assert len(radii) == 3


def test_completeness_flat_space(euclid3):
    rep = completeness_probe(euclid3, 0.05, SolveControls(n_cells=256, step_tol=1e-6))
    check_report_shape(rep, "completeness")
    assert rep.verdict == "confirms" and rep.finding == "complete"
    assert rep.fitted["m_limit"] >= 1.0 - 1e-6
    for row in rep.series["completeness"]:
        assert 0.0 < row["m_at_0"] <= 1.0 + 1e-12


@pytest.mark.parametrize("n_cells", [1023, 1027])
def test_completeness_flat_space_settled_pole_confirms(euclid3, n_cells):
    # on these grids the settled pole values wobble by 1e-13 around 1; the
    # extrapolation must not read that roundoff as a non-contracting series
    rep = completeness_probe(euclid3, 0.1, SolveControls(n_cells=n_cells))
    row = check_row(rep.evidence["checks"], "extrapolation_low_confidence",
                    "both")
    assert row["status"] == "pass"
    assert (rep.verdict, rep.finding) == ("confirms", "complete")


def test_completeness_superexponential_weight(pe4):
    # the exp(r^4) model loses mass through infinity at any positive time
    rep = completeness_probe(pe4, 0.1, SolveControls(n_cells=384, step_tol=1e-6))
    assert rep.verdict == "refutes" and rep.finding == "incomplete"
    assert rep.fitted["m_limit"] < 1.0 - 1e-3
    assert rep.fitted["last_delta"] <= 1e-4
    row = check_row(rep.evidence["checks"], "last_delta", "refutes")
    assert (row["measured"], row["tolerance"], row["status"]) == (
        rep.fitted["last_delta"], 1e-4, "pass")
    # larger absorbing balls keep more mass, so the pole value rises with R
    # yet stays pinned away from 1
    ms = [row["m_at_0"] for row in rep.series["completeness"]]
    assert all(b >= a - 1e-12 for a, b in zip(ms, ms[1:])), f"pole values fell: {ms}"
    assert ms[-1] < 1.0 - 1e-3


def _completeness_report(tmp_path, name):
    out = tmp_path / name
    assert run(str(ROOT / "configs" / f"{name}.json"), str(out)) == 0
    return json.loads((out / "report.json").read_text())


def test_completeness_flat_sample_stops_once_the_pole_settles(tmp_path):
    # the pole value reads 1 from the third level on, so the walk stops
    # after the fifth of the eight planned levels
    report = _completeness_report(tmp_path, "completeness_euclidean")
    planned = exhaustion_radii(0.0, 0.1, math.inf)
    assert len(planned) == 8
    radii = [row["R"] for row in report["series"]["completeness"]]
    # the automatic policy is echoed as such; the rows name the radii that ran
    assert report["config"]["controls"]["exhaustion"] is None
    assert radii == pytest.approx(planned[:5], rel=1e-11)
    assert radii[-1] == 6.32455532034
    assert (report["verdict"], report["finding"]) == ("confirms", "complete")
    assert report["fitted"]["m_limit"] == 1


def test_completeness_superexp_sample_walks_every_level(tmp_path, pe4):
    # the pole value still moves by more than eps_c/100 between levels
    report = _completeness_report(tmp_path, "completeness_superexp")
    planned = exhaustion_radii(0.0, 0.1, overflow_safe_radius(pe4))
    assert len(planned) == 5
    radii = [row["R"] for row in report["series"]["completeness"]]
    assert radii[:4] == pytest.approx(planned[:4], rel=1e-11)
    # the radius capped inside the safe radius snaps onto the nearest face
    width = planned[0] / report["config"]["controls"]["n_cells"]
    assert abs(radii[-1] - planned[-1]) <= 0.5 * width
    assert report["config"]["controls"]["exhaustion"] is None
    assert report["finding"] == "incomplete"


def test_completeness_walks_explicit_radii_in_full(euclid3):
    # the pole value is within 1e-7 of 1 from R = 2 on, yet every radius runs
    radii = (2.0, 3.0, 4.0, 5.0, 6.0)
    controls = SolveControls(n_cells=64, step_tol=1e-5, exhaustion=radii)
    rep = completeness_probe(euclid3, 0.05, controls)
    assert [row["R"] for row in rep.series["completeness"]] == list(radii)
    assert rep.finding == "complete"


@pytest.mark.parametrize("poles, drawn", [
    ([1.0] * 8, 3),                      # settled at once: the 3-level minimum
    ([0.9, 1.0 - 1e-7] + [1.0] * 6, 4),  # the two moves settle at level 4
    ([0.5] * 8, 8),                      # settled below 1
    ([1.0 - 1e-5] * 8, 8),               # within eps_c of 1, not eps_c/100
])
def test_completeness_stops_only_once_the_pole_settles_at_1(
        euclid3, monkeypatch, poles, drawn):
    walked = []

    def levels(manifold, datum, stops, controls):
        assert controls.exhaustion is None  # the walk plans the radii
        for R, m in zip(exhaustion_radii(0.0, stops[-1], math.inf), poles):
            walked.append(R)
            yield SimpleNamespace(R=R), [np.array([m])]

    monkeypatch.setattr(heatlab.experiments, "exhaustion_levels", levels)
    rep = completeness_probe(euclid3, 0.1, SolveControls(), eps_c=1e-4)
    assert len(walked) == drawn
    assert [row["R"] for row in rep.series["completeness"]] == walked


def test_completeness_low_confidence_limit_is_inconclusive(euclid3,
                                                           monkeypatch):
    # pole values whose differences fail to contract: the Aitken limit
    # sits below 1 - 10*eps_c with a settled last step, yet is not trusted
    def levels(manifold, datum, stops, controls):
        radii = exhaustion_radii(0.0, stops[-1], math.inf)
        for R, m in zip(radii, [0.5, 0.6, 0.695, 0.69505]):
            yield SimpleNamespace(R=R), [np.array([m])]

    monkeypatch.setattr(heatlab.experiments, "exhaustion_levels", levels)
    rep = completeness_probe(euclid3, 0.1, SolveControls(), eps_c=1e-4)
    checks = rep.evidence["checks"]
    assert check_row(checks, "extrapolation_low_confidence",
                     "both")["status"] == "fail"
    assert check_row(checks, "m_limit", "refutes")["status"] == "pass"
    assert check_row(checks, "last_delta", "refutes")["status"] == "pass"
    assert (rep.verdict, rep.finding) == ("inconclusive", "undetermined")


def test_completeness_checks_exhaustion_monotonicity(euclid3, monkeypatch):
    # dent the third level by 1e-6, more than it exceeds the second by
    advance = heatlab.solver.advance_states
    levels = []

    def denting(*args, **kwargs):
        levels.append(advance(*args, **kwargs))
        dent = 1e-6 if len(levels) == 3 else 0.0
        return [state - dent for state in levels[-1]]

    monkeypatch.setattr(heatlab.solver, "advance_states", denting)
    with pytest.raises(NumericalFailure, match="exhaustion monotonicity "
                       "violated by .* between R=2 and R=3 at t=0.05"):
        completeness_probe(euclid3, 0.05, SolveControls(n_cells=64, step_tol=1e-5))
    assert len(levels) == 3


def test_blowup_superexponential_weight(pe4):
    controls = SolveControls(n_cells=256, step_tol=1e-6)
    rep = blowup_sweep(pe4, 1.0, (0.1,), (2.0, 3.0, 4.0), controls)
    check_report_shape(rep, "blowup")
    assert rep.verdict == "confirms", rep.finding
    fitted, checks = rep.fitted["per_t"][0], rep.evidence["checks"][0]
    assert check_row(checks, "least_tv_increment")["measured"] > 0
    assert check_row(checks, "mass_flux_defect")["measured"] >= -1e-8
    q_row = check_row(checks, "q_at_Rmax")
    assert q_row["measured"] > q_row["tolerance"]
    assert fitted["r_t"] is not None and fitted["delta_t"] > 0
    tvs = [row["TV_R"] for row in rep.series["blowup_t0"]]
    assert tvs[-1] > 100.0, f"variation should be enormous by R=4, got {tvs[-1]}"


def test_blowup_flat_space_control(euclid3):
    controls = SolveControls(n_cells=256, step_tol=1e-6)
    rep = blowup_sweep(euclid3, 1.0, (0.1,), (2.0, 3.0, 4.0), controls)
    assert rep.verdict == "refutes", rep.finding
    checks = rep.evidence["checks"][0]
    step = check_row(checks, "last_tv_step", "refutes")
    assert step["measured"] <= step["tolerance"]
    q_row = check_row(checks, "q_at_Rmax", "refutes")
    assert q_row["measured"] < q_row["tolerance"]
    tvs = [row["TV_R"] for row in rep.series["blowup_t0"]]
    assert abs(tvs[-1] - tvs[-2]) < 1e-3 * tvs[-1], "flat-space variation must settle"


def test_blowup_validation(pe4, fast_controls):
    with pytest.raises(InvalidArgumentError):
        blowup_sweep(pe4, 1.0, (0.1,), (3.0, 2.0), fast_controls)
    with pytest.raises(InvalidArgumentError):
        blowup_sweep(pe4, 1.0, (0.1,), (0.5, 2.0), fast_controls)
    with pytest.raises(RangeError):
        blowup_sweep(pe4, 1.0, (0.1,), (2.0, 6.0), fast_controls)


def test_blowup_sweep_flat_space_limit(euclid3):
    controls = SolveControls(n_cells=192, step_tol=1e-6)
    rep = blowup_sweep(euclid3, 1.0, (0.05, 0.025, 0.0125), (2.0, 3.0, 4.0),
                       controls)
    check_report_shape(rep, "blowup")
    assert (rep.verdict, rep.finding) == ("refutes", "convergent")
    assert rep.evidence["findings"] == ["convergent"] * 3
    assert list(rep.series) == ["blowup_t0", "blowup_t1", "blowup_t2"]
    assert [f["t"] for f in rep.fitted["per_t"]] == [0.05, 0.025, 0.0125]
    # the small-time limit of the complement variation is the ball perimeter
    limit = rep.fitted["summary"]["tv_small_time_limit"]
    assert abs(limit - 4 * math.pi) < 0.01 * 4 * math.pi


def _count_trajectories(monkeypatch, module):
    calls = []
    advance = module.advance_states

    def counting(*args, **kwargs):
        calls.append(args[2])
        return advance(*args, **kwargs)

    monkeypatch.setattr(module, "advance_states", counting)
    return calls


def test_blowup_sweep_evolves_one_trajectory(pe4, euclid3, monkeypatch):
    # the [constant, ball] pair runs once through every t; off flat space a
    # flat noise-floor companion runs once more, on flat space none
    controls = SolveControls(n_cells=128, step_tol=1e-5)
    calls = _count_trajectories(monkeypatch, heatlab.solver)
    rep = blowup_sweep(pe4, 1.0, (0.1, 0.05), (2.0, 3.0, 4.0), controls)
    assert rep.finding == "divergent"
    assert calls == [[0.05, 0.1], [0.05, 0.1]]
    calls.clear()
    blowup_sweep(euclid3, 1.0, (0.05, 0.025, 0.0125), (2.0, 3.0, 4.0), controls)
    assert calls == [[0.0125, 0.025, 0.05]]


def test_tail_probe_evolves_one_trajectory(euclid3, monkeypatch):
    calls = _count_trajectories(monkeypatch, heatlab.solver)
    tail_probe(euclid3, ball_indicator(1.0), 2.0, (0.05, 0.04, 0.03),
               SolveControls(n_cells=128, step_tol=1e-5))
    assert calls == [[0.03, 0.04, 0.05]]


@pytest.mark.parametrize("gap_rtol", [0.0, -0.01, math.nan])
def test_degiorgi_gap_bound_must_be_positive(euclid3, fast_controls, gap_rtol):
    with pytest.raises(InvalidArgumentError, match="gap_rtol"):
        degiorgi_sweep(euclid3, ball_indicator(1.0), (0.02, 0.01),
                       fast_controls, gap_rtol=gap_rtol)


@pytest.mark.parametrize("eps_c", [0.0, -0.5, 0.1, math.nan])
def test_completeness_eps_c_bounds(euclid3, fast_controls, eps_c):
    # at 0.1 or above the incomplete band below 1 - 10*eps_c is empty
    with pytest.raises(InvalidArgumentError, match="eps_c"):
        completeness_probe(euclid3, 0.1, fast_controls, eps_c=eps_c)


def test_comparison_certificate(fast_controls):
    rep = comparison_check(0.5, 2.0, SolveControls(n_cells=256, step_tol=1e-6))
    check_report_shape(rep, "comparison")
    assert rep.verdict == "confirms", rep.finding
    checks = rep.evidence["checks"]
    vw = check_row(checks, "max_v_minus_w")
    assert vw["tolerance"] == 1e-6 and vw["measured"] <= vw["tolerance"]
    assert check_row(checks, "max_lap_w")["measured"] < -1.0
    assert abs(rep.fitted["lap_w_at_1"] - (-4.0 - math.expm1(-1.0))) < 1e-15
    assert abs(rep.fitted["lap_w_near_zero"] + 3.0) < 1e-3
    assert abs(rep.fitted["lap_w_far"] + 4.0) < 1e-6
    rows = rep.series["comparison"]
    assert all(row["v_R"] <= row["w_R"] + 1e-6 for row in rows)


@pytest.mark.parametrize("R,n_cells", [(2.0, 256), (3.0, 512)])
def test_comparison_barrier_matches_quadrature(R, n_cells):
    # w(r), the integral of (1 - exp(-s^4))/s^3 from r to R, summed cell by
    # cell from R inwards; the closed form must agree at every center.  Next
    # to the wall it subtracts two values near 1/R^2, which leaves about
    # 5e-18 of rounding, hence the absolute floor; the erf form G(R) - G(r)
    # subtracts two values near sqrt(pi)/2 and fails this by 2x or more
    rep = comparison_check(0.05, R, SolveControls(n_cells=n_cells, step_tol=1e-5))
    rows = rep.series["comparison"]
    nodes = [row["r"] for row in rows] + [R]  # the last face sits at R
    acc, worst = 0.0, 0.0
    for i in range(len(rows) - 1, -1, -1):
        acc += quad(lambda s: -math.expm1(-s ** 4) / s ** 3,
                    nodes[i], nodes[i + 1])[0]
        worst = max(worst, abs(rows[i]["w_R"] - acc) / (2e-14 * acc + 1e-17))
    assert worst <= 1.0, f"barrier off quadrature by {worst:.2f}x the tolerance"


def test_comparison_rejects_large_times(fast_controls):
    with pytest.raises(InvalidArgumentError):
        comparison_check(1.5, 2.0, fast_controls)
    with pytest.raises(InvalidArgumentError):
        comparison_check(0.0, 2.0, fast_controls)


def test_drivers_reject_a_boolean_time(euclid3, fast_controls):
    # True == 1, but a boolean is no time
    with pytest.raises(InvalidArgumentError, match="time"):
        completeness_probe(euclid3, True, fast_controls)
    with pytest.raises(InvalidArgumentError, match="time"):
        comparison_check(True, 2.0, fast_controls)
    with pytest.raises(InvalidArgumentError, match="time"):
        degiorgi_sweep(euclid3, ball_indicator(1.0), [True], fast_controls)
    with pytest.raises(InvalidArgumentError, match="time"):
        blowup_sweep(euclid3, 1.0, [0.5, True], (2.0, 3.0), fast_controls)
    with pytest.raises(InvalidArgumentError, match="time"):
        tail_probe(euclid3, ball_indicator(1.0), 2.0, [True, 0.5, 0.25],
                   fast_controls)


@pytest.mark.parametrize("call", [
    lambda m, c: blowup_sweep(m, True, [0.05], [2.0, 3.0], c),
    lambda m, c: blowup_sweep(m, 0.5, [0.05], [True, 3.0], c),
    lambda m, c: comparison_check(0.1, True, c),
    lambda m, c: comparison_check("0.1", 2.0, c),
    lambda m, c: tail_probe(m, ball_indicator(0.5), True, [0.05, 0.04, 0.03], c),
    lambda m, c: tail_probe(m, ball_indicator(1.0), 2.0, ["0.05", "0.04", "0.03"], c),
    lambda m, c: degiorgi_sweep(m, ball_indicator(1.0), ["0.02", "0.01", "0.005"], c),
    lambda m, c: SolveControls(exhaustion=(True, 3.0)),
    lambda m, c: SolveControls(step_tol=True),
    lambda m, c: SolveControls(n_cells="1024"),
], ids=["blowup_r0", "blowup_R_list", "comparison_R", "comparison_t_text",
        "tail_R_out", "tail_t_text", "degiorgi_t_text", "exhaustion",
        "step_tol", "n_cells_text"])
def test_drivers_reject_a_boolean_radius_or_a_non_real_number(
        euclid3, fast_controls, call):
    # True == 1 and float("0.05") == 0.05, but neither is a radius or time
    with pytest.raises(InvalidArgumentError):
        call(euclid3, fast_controls)


def test_tail_fit_flat_and_gaussian(euclid3, gauss):
    controls = SolveControls(n_cells=256, step_tol=1e-6)
    for m in (euclid3, gauss):
        rep = tail_probe(m, ball_indicator(1.0), 2.0, (0.05, 0.04, 0.03, 0.02), controls)
        check_report_shape(rep, "tail")
        assert rep.verdict == "confirms", f"{m.family}: {rep.finding}"
        assert rep.fitted["slope"] < 0
        assert rep.fitted["r_squared"] >= 0.95
        assert rep.fitted["n_points"] >= 3
        # residuals are attached exactly to the admissible rows
        used = [row for row in rep.series["tail"] if row["fit_residual"] is not None]
        assert len(used) == rep.fitted["n_points"]


def test_tail_requires_margin(euclid3, fast_controls):
    with pytest.raises(InvalidArgumentError):
        tail_probe(euclid3, ball_indicator(1.0), 1.5, (0.05, 0.02), fast_controls)


def test_tail_beyond_safe_radius_is_range_error(pe4, monkeypatch):
    # exp(+r^4) overflows past r = 5.13, so no face beyond R_out = 5.5
    # exists to carry a tail; the probe must refuse before any solve
    calls = _count_trajectories(monkeypatch, heatlab.solver)
    with pytest.raises(RangeError, match="R_out=5.5"):
        tail_probe(pe4, ball_indicator(2.0), 5.5, (0.05, 0.04, 0.03),
                   SolveControls(n_cells=128, step_tol=1e-5))
    assert calls == []


def test_tail_without_a_face_beyond_R_out_is_range_error(pe4, monkeypatch):
    # R_out = 5.12 lies inside the safe radius 5.133, but at 128 cells over
    # the capped ball the last interior face sits at 5.093: no face beyond
    # R_out carries a tail, which once read as three underflowed zeros
    calls = _count_trajectories(monkeypatch, heatlab.solver)
    with pytest.raises(RangeError, match="no interior face"):
        tail_probe(pe4, ball_indicator(2.0), 5.12, (0.05, 0.04, 0.03),
                   SolveControls(n_cells=128, step_tol=1e-5))
    assert calls == []


def test_blowup_beyond_safe_radius_is_range_error(pe4, monkeypatch):
    calls = _count_trajectories(monkeypatch, heatlab.solver)
    with pytest.raises(RangeError, match="R_max=6"):
        blowup_sweep(pe4, 1.0, (0.1,), (2.0, 6.0),
                     SolveControls(n_cells=64, step_tol=1e-5))
    assert calls == []


def test_blowup_without_a_face_beyond_R_max_is_range_error(pe4, monkeypatch):
    # R_max = 5.13 snapped onto the capped wall at 5.133 itself, the one
    # face that reads no variation, and the sweep confirmed divergence
    calls = _count_trajectories(monkeypatch, heatlab.solver)
    with pytest.raises(RangeError, match="no interior face"):
        blowup_sweep(pe4, 1.0, (0.1,), (2.0, 5.13),
                     SolveControls(n_cells=64, step_tol=1e-5))
    assert calls == []


def test_blowup_notes_a_capped_wall(pe4, euclid3):
    # exp(+r^4) caps the wall at the safe radius, 0.13 past R_max = 5
    # where the margin asks for 2.53; flat space never caps
    controls = SolveControls(n_cells=64, step_tol=1e-5)
    safe = overflow_safe_radius(pe4)
    rep = blowup_sweep(pe4, 1.0, (0.1,), (2.0, 5.0), controls)
    assert rep.fitted["notes"] == [f"solve radius capped at {safe:.6g}"]
    assert rep.fitted["R_solve"] == safe
    flat = blowup_sweep(euclid3, 1.0, (0.1,), (2.0, 5.0), controls)
    assert flat.fitted["notes"] == []
    assert flat.fitted["R_solve"] == 5.0 + 8.0 * math.sqrt(0.1)


def test_tail_too_few_points_is_inconclusive(euclid3):
    controls = SolveControls(n_cells=128, step_tol=1e-5)
    rep = tail_probe(euclid3, ball_indicator(1.0), 2.0, (0.05, 0.04), controls)
    assert rep.verdict == "inconclusive"
    assert math.isnan(rep.fitted["r_squared"])


def test_guard_verdicts_follow_from_their_rows(euclid3):
    # a run stopped before its fit still carries the row that stopped it
    controls = SolveControls(n_cells=64, step_tol=1e-5, exhaustion=(2.0, 3.0))
    reps = [(completeness_probe(euclid3, 0.05, controls),
             ("exhaustion_levels", 2.0, "fewer than 3 exhaustion levels")),
            (tail_probe(euclid3, ball_indicator(1.0), 2.0, [0.05, 0.04],
                        controls),
             ("admissible_tail_points", 2.0, "too few usable tail points"))]
    for rep, (prop, measured, finding) in reps:
        (row,) = rep.evidence["checks"]
        assert (row["property"], row["measured"], row["relation"],
                row["tolerance"], row["gate"], row["status"]) == (
            prop, measured, ">=", 3.0, "both", "fail")
        assert decide(rep.evidence["checks"], ("a", "b", finding)) == (
            "inconclusive", finding)
        assert (rep.verdict, rep.finding) == ("inconclusive", finding)


def test_piecewise_datum_through_degiorgi(euclid3):
    # a ramp has no jump: its variation is already the limit, so the series
    # is nearly flat and must extrapolate onto the exact value
    ramp = piecewise([(0.0, 1.0), (1.0, 0.0)])
    controls = SolveControls(n_cells=192, step_tol=1e-6, exhaustion=(3.0,))
    rep = degiorgi_sweep(euclid3, ramp, (0.02, 0.01, 0.005), controls)
    assert rep.verdict == "confirms", rep.finding
    assert rep.fitted["relative_gap"] < 5e-3
    assert abs(rep.fitted["exact_tv"] - 4 * math.pi / 3) < 1e-10
