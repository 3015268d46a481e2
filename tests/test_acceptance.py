"""End-to-end acceptance checks of the package's headline claims.

Each test covers one numbered claim at its stated tolerance, prints a single
PASS/FAIL line, and is self-contained: it builds its own grids, runs its own
solves, and compares against references computed in conftest or in closed
form here.  Run with ``pytest -v tests/test_acceptance.py`` to see one result
line per criterion.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from heatlab import (
    SolveControls,
    ball_indicator,
    euclidean,
    exhaustion_levels,
    power_exp_weight,
    weighted_sum,
)
from heatlab.cli import run as cli_run
from heatlab.cli import validate
from heatlab.experiments import (
    blowup_sweep,
    comparison_check,
    completeness_probe,
    degiorgi_sweep,
    tail_probe,
)
from conftest import ball_heat_closed_form, check_row

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def report_line(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def test_criterion_1_kernel_accuracy():
    # evolved unit-ball indicator in flat 3-space at t=0.05, N=4096, R=4,
    # within 1e-3 of the independent closed-form kernel in relative
    # measure-weighted L1, in under 10 seconds
    started = time.perf_counter()
    controls = SolveControls(n_cells=4096, step_tol=1e-6, exhaustion=(4.0,))
    (g, (values,)), = exhaustion_levels(euclidean(3), ball_indicator(1.0),
                                        [0.05], controls)
    ref = np.array([ball_heat_closed_form(float(r), 0.05) for r in g.centers])
    rel = (weighted_sum(g, np.abs(values - ref))
           / weighted_sum(g, np.abs(ref)))
    wall = time.perf_counter() - started
    ok = rel <= 1e-3 and wall < 10.0
    assert report_line("criterion 1 (kernel accuracy)", ok,
                       f"rel L1 error {rel:.3e} (tol 1e-3), wall {wall:.2f}s (limit 10s)")


def test_criterion_2_variation_limits():
    # small-time variation limit recovers the exact perimeter: within 1% of
    # 4*pi in flat space and within 2% of 4*pi/e under the Gaussian weight,
    # each sweep finishing in under 60 seconds
    t_list = (0.02, 0.01, 0.005, 0.0025)
    controls = SolveControls(n_cells=1024, step_tol=1e-6, exhaustion=(4.0,))

    started = time.perf_counter()
    flat = degiorgi_sweep(euclidean(3), ball_indicator(1.0), t_list, controls)
    flat_wall = time.perf_counter() - started
    flat_gap = abs(flat.fitted["extrapolated_limit"] - 4 * math.pi) / (4 * math.pi)

    started = time.perf_counter()
    exact_g = 4 * math.pi * math.exp(-1.0)
    gaussw = degiorgi_sweep(power_exp_weight(2, -1, 3), ball_indicator(1.0),
                            t_list, controls)
    gauss_wall = time.perf_counter() - started
    gauss_gap = abs(gaussw.fitted["extrapolated_limit"] - exact_g) / exact_g

    ok = (flat.verdict == "confirms" and flat_gap <= 0.01 and flat_wall < 60.0
          and gaussw.verdict == "confirms" and gauss_gap <= 0.02
          and gauss_wall < 60.0)
    assert report_line(
        "criterion 2 (variation limit)", ok,
        f"flat gap {flat_gap:.2e} (tol 1e-2) in {flat_wall:.2f}s; "
        f"gaussian gap {gauss_gap:.2e} (tol 2e-2) in {gauss_wall:.2f}s")


def test_criterion_3_completeness_probe():
    # the exp(+r^4) model reads incomplete: pole mass limit stable to 1e-4
    # and bounded below 1 - 1e-3; flat space reads complete to 1e-6
    controls = SolveControls(n_cells=1024, step_tol=1e-6)
    weighted = completeness_probe(power_exp_weight(4, 1, 3), 0.1, controls,
                                  eps_c=1e-4)
    flat = completeness_probe(euclidean(3), 0.1, controls, eps_c=1e-4)
    ok = (weighted.verdict == "refutes" and weighted.finding == "incomplete"
          and weighted.fitted["m_limit"] <= 1.0 - 1e-3
          and weighted.fitted["last_delta"] <= 1e-4
          and flat.verdict == "confirms" and flat.finding == "complete"
          and flat.fitted["m_limit"] >= 1.0 - 1e-6)
    assert report_line(
        "criterion 3 (completeness probe)", ok,
        f"weighted m_limit {weighted.fitted['m_limit']:.6f} "
        f"(stable to {weighted.fitted['last_delta']:.1e}) -> {weighted.finding}; "
        f"flat m_limit {flat.fitted['m_limit']:.9f} -> {flat.finding}")


def test_criterion_4_complement_blowup():
    # complement variations on the exp(+r^4) model diverge in R at every
    # probed time, witnessed by monotone mass flux and a positive flux at
    # R_max; the flat-space control converges to the ball perimeter
    controls = SolveControls(n_cells=512, step_tol=1e-6)
    sweep = blowup_sweep(power_exp_weight(4, 1, 3), 1.0, (0.2, 0.1, 0.05),
                         (2.0, 3.0, 4.0, 5.0), controls)
    problems = []
    if (sweep.verdict, sweep.finding) != ("confirms", "divergent"):
        problems.append(f"sweep reads {sweep.verdict} ({sweep.finding})")
    for fitted, checks in zip(sweep.fitted["per_t"], sweep.evidence["checks"]):
        t = fitted["t"]
        if not check_row(checks, "least_tv_increment")["measured"] > 0:
            problems.append(f"t={t}: TV_R not strictly increasing")
        if not fitted["slope"] > 0:
            problems.append(f"t={t}: slope {fitted['slope']:.2e} not positive")
        defect = check_row(checks, "mass_flux_defect")["measured"]
        if defect < -1e-8:
            problems.append(f"t={t}: flux defect {defect:.2e}")
        q_row = check_row(checks, "q_at_Rmax")
        if not q_row["measured"] > max(q_row["tolerance"], 0.0):
            problems.append(f"t={t}: flux at R_max below threshold")
        if fitted["r_t"] is None or not fitted["delta_t"] > 0:
            problems.append(f"t={t}: no flux crossing witness")

    control = blowup_sweep(euclidean(3), 1.0, (0.05, 0.025, 0.0125, 0.00625),
                           (2.0, 3.0, 4.0, 5.0), controls)
    if (control.verdict, control.finding) != ("refutes", "convergent"):
        problems.append("flat control did not read convergent")
    limit = control.fitted["summary"]["tv_small_time_limit"]
    tv_gap = abs(limit - 4 * math.pi) / (4 * math.pi)
    if tv_gap > 0.01:
        problems.append(f"flat control limit off by {tv_gap:.2e}")

    ok = not problems
    assert report_line(
        "criterion 4 (complement blowup)", ok,
        "divergent at t in {0.2, 0.1, 0.05} with monotone flux; "
        f"flat control limit gap {tv_gap:.2e} (tol 1e-2)"
        if ok else "; ".join(problems))


def test_criterion_5_comparison_certificate():
    # the truncated time integrals stay below the explicit barrier at every
    # node for all six (t, R) combinations, the barrier's drift term is
    # uniformly below -1, and its value at r=1 matches -3.367879 to 1e-6
    problems = []
    spot_target = -3.367879
    controls = SolveControls(n_cells=512, step_tol=1e-6)
    for t in (0.1, 0.5, 1.0):
        for R in (2.0, 3.0):
            rep = comparison_check(t, R, controls)
            tag = f"t={t}, R={R}"
            if rep.verdict != "confirms":
                problems.append(f"{tag}: verdict {rep.verdict} ({rep.finding})")
            vw = check_row(rep.evidence["checks"], "max_v_minus_w")["measured"]
            if vw > 1e-6:
                problems.append(f"{tag}: v exceeds w by {vw:.2e}")
            lap = check_row(rep.evidence["checks"], "max_lap_w")["measured"]
            if not lap < -1.0:
                problems.append(f"{tag}: drift term reaches {lap:.3f}")
            if abs(rep.fitted["lap_w_at_1"] - spot_target) > 1e-6:
                problems.append(f"{tag}: spot value {rep.fitted['lap_w_at_1']:.7f}")
            if abs(rep.fitted["lap_w_near_zero"] + 3.0) > 1e-6:
                problems.append(f"{tag}: limit at 0 is {rep.fitted['lap_w_near_zero']:.7f}")
            if abs(rep.fitted["lap_w_far"] + 4.0) > 1e-6:
                problems.append(f"{tag}: far limit is {rep.fitted['lap_w_far']:.7f}")
    ok = not problems
    assert report_line(
        "criterion 5 (comparison certificate)", ok,
        "v <= w + 1e-6 at every node for all six (t, R); drift < -1 with "
        "limits -3 and -4" if ok else "; ".join(problems))


def test_criterion_6_gradient_tail_decay():
    # the variation mass beyond twice the support decays like exp(-c/t):
    # the log-tail regression on 1/t has negative slope and R^2 >= 0.95
    # with at least 4 admissible points, on both models
    controls = SolveControls(n_cells=512, step_tol=1e-6)
    t_list = (0.05, 0.04, 0.03, 0.02, 0.01)
    problems = []
    details = []
    for m, name in ((euclidean(3), "flat"), (power_exp_weight(2, -1, 3), "gaussian")):
        rep = tail_probe(m, ball_indicator(1.0), 2.0, t_list, controls)
        if rep.verdict != "confirms":
            problems.append(f"{name}: verdict {rep.verdict} ({rep.finding})")
        if not rep.fitted["slope"] < 0:
            problems.append(f"{name}: slope {rep.fitted['slope']:.3e} not negative")
        if rep.fitted["r_squared"] < 0.95:
            problems.append(f"{name}: R^2 {rep.fitted['r_squared']:.4f} below 0.95")
        if rep.fitted["n_points"] < 4:
            problems.append(f"{name}: only {rep.fitted['n_points']} admissible points")
        details.append(f"{name} R^2 {rep.fitted['r_squared']:.4f} "
                       f"(c={rep.fitted['c']:.3f}, n={rep.fitted['n_points']})")
    ok = not problems
    assert report_line("criterion 6 (gradient tail decay)", ok,
                       "; ".join(details) if ok else "; ".join(problems))


def test_criterion_7_validate_property_suite():
    # the built-in validation battery holds every structural property
    started = time.perf_counter()
    out = validate(seed=0)
    wall = time.perf_counter() - started
    rows = out["evidence"]["checks"]
    failed = [row["property"] for row in rows if row["status"] != "pass"]
    ok = (out["verdict"] == "confirms" and len(rows) == 7
          and not failed and wall < 120.0)
    assert report_line(
        "criterion 7 (validate suite)", ok,
        f"7/7 properties hold in {wall:.2f}s" if ok else f"failing: {failed}")


def test_criterion_8_cli_contract(tmp_path):
    # the shipped flat-space sweep config runs to a confirming verdict with
    # exit code 0, and the out-of-range config fails cleanly with exit 3
    out_ok = tmp_path / "ok"
    code = cli_run(str(CONFIG_DIR / "degiorgi_euclidean.json"), str(out_ok),
                   experiment="degiorgi")
    report = json.loads((out_ok / "report.json").read_text()) if code == 0 else {}

    out_err = tmp_path / "err"
    code_err = cli_run(str(CONFIG_DIR / "blowup_overflow_error.json"), str(out_err),
                       experiment="blowup")
    err_record = {}
    if (out_err / "error.json").exists():
        err_record = json.loads((out_err / "error.json").read_text())

    ok = (code == 0 and report.get("verdict") == "confirms"
          and (out_ok / "degiorgi.csv").exists()
          and code_err == 3 and err_record.get("error") == "RangeError")
    assert report_line(
        "criterion 8 (command line contract)", ok,
        f"exit 0 with verdict {report.get('verdict')!r}; "
        f"overflow config exits 3 with {err_record.get('error')}")
