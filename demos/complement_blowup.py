"""A set of finite perimeter whose smoothed variation explodes.

The complement of the unit ball has finite perimeter, yet under the
exp(+r^4) weight the variation of its heat-smoothed indicator grows without
bound as the truncation radius R increases, at every fixed time t.  The
witness is the radial flux of the evolved profile: it is nonnegative,
nondecreasing in R (a discrete identity, checked to 1e-8), and still large
at the outermost radius, so the variation integral keeps accumulating.

Flat space, run identically, settles onto the perimeter of the ball.

Run:  python3 demos/complement_blowup.py
"""

import math

from heatlab import SolveControls, euclidean, power_exp_weight
from heatlab.experiments import blowup_sweep


def show(manifold, t_list, label):
    controls = SolveControls(n_cells=512, step_tol=1e-6)
    sweep = blowup_sweep(manifold, 1.0, t_list, (2.0, 3.0, 4.0, 5.0), controls)
    print(f"\n{label}")
    for t, rows, finding, checks in zip(t_list, sweep.series.values(),
                                        sweep.evidence["findings"],
                                        sweep.evidence["checks"]):
        tvs = "  ".join(f"{row['TV_R']:12.4f}" for row in rows)
        defect = next(row["measured"] for row in checks
                      if row["property"] == "mass_flux_defect")
        print(f"  t={t:<6g} variation by R:  {tvs}")
        print(f"           finding: {finding}"
              f" (flux at R_max {rows[-1]['q_at_Rmax']:.3e},"
              f" monotone defect {defect:.1e})")
    print(f"  sweep: {sweep.verdict} ({sweep.finding})")
    summary = sweep.fitted["summary"]
    if "tv_small_time_limit" in summary:
        limit = summary["tv_small_time_limit"]
        print(f"  small-time limit of the R=5 variation: {limit:.8f}"
              f"  (4*pi = {4 * math.pi:.8f})")


def main():
    print("Variation of the heat-smoothed complement of the unit ball,")
    print("measured inside balls of radius R in {2, 3, 4, 5}.")
    show(power_exp_weight(4, 1, 3), (0.2, 0.1, 0.05), "weighted by exp(+r^4)")
    show(euclidean(3), (0.05, 0.025, 0.0125, 0.00625), "flat 3-space control")
    print("\nUnder the weight the columns explode in R; smoothing an")
    print("indicator can create unbounded variation on this geometry.")


if __name__ == "__main__":
    main()
